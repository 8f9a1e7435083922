// Package cc holds capcontract-clean shapes: each sanctioned way of
// writing into a caller-supplied slice.
package cc

// Guarded checks the capacity contract explicitly before extending and
// copying — the real copySingle discipline.
func Guarded(dst, s []uint32) int {
	if cap(dst) < len(s) {
		panic("cc: dst capacity too small")
	}
	dst = dst[:cap(dst)]
	return copy(dst, s)
}

// Annotated documents the panic-on-under-capacity contract instead of
// branching; the annotation accepts the obligation.
//
//light:cap-contract
func Annotated(dst, s []uint32) int {
	dst = dst[:cap(dst)]
	return copy(dst, s)
}

// EqualBounds copies between reslices with identical bounds, which
// cannot truncate.
func EqualBounds(dst, src []uint32, n int) {
	copy(dst[:n], src[:n])
}

// Local only reslices a locally allocated buffer; the caller's slices
// are untouched.
func Local(n int) []uint32 {
	buf := make([]uint32, 0, n)
	buf = buf[:cap(buf)]
	return buf
}

// fill is implemented in assembly: it writes n elements into dst with no
// bounds checks.
func fill(dst []uint32, n int)

// AsmGuarded checks the capacity in an if condition before handing the
// destination to assembly — the MergeBlock discipline.
func AsmGuarded(dst []uint32, n int) {
	if cap(dst) < n {
		panic("cc: dst capacity too small")
	}
	fill(dst[:cap(dst)], n)
}

// AsmLocal passes only a locally allocated buffer to assembly.
func AsmLocal(n int) []uint32 {
	buf := make([]uint32, n)
	fill(buf, n)
	return buf
}
