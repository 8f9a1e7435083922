// Package cc holds capcontract violation fixtures: unguarded writes
// into caller-supplied slices. Single is the pre-fix MultiWay shape
// from PR 5, whose copy silently truncated when the destination was
// shorter than the source.
package cc

// Single intersects a single set into dst — and truncates silently
// when cap is short, because nothing checks or documents the contract.
func Single(dst, s []uint32) int {
	return copy(dst, s) // want capcontract
}

// Extend exposes the destination's spare capacity to writes without a
// guard.
func Extend(dst []uint32) []uint32 {
	dst = dst[:cap(dst)] // want capcontract
	for i := range dst {
		dst[i] = 0
	}
	return dst
}

// fill is implemented in assembly: it writes n elements into dst with no
// bounds checks.
func fill(dst []uint32, n int)

// AsmAnnotated hands dst to assembly with nothing checking its length.
// The annotation documents a panic, but assembly does not panic, so it
// does not cover the call.
//
//light:cap-contract
func AsmAnnotated(dst []uint32, n int) {
	fill(dst[:cap(dst)], n) // want capcontract
}

// AsmUnguarded passes the destination straight through.
func AsmUnguarded(dst []uint32, n int) {
	fill(dst, n) // want capcontract
}
