package intersect

import "light/internal/graph"

// useAVX2 selects the assembly block kernel in MergeBlock. It is set
// once from the CPU's feature bits.
var useAVX2 = cpuHasAVX2()

// mergeAVX2 runs the AVX2 block loop over a and b while both hold a
// full block of eight, writing the matches into dst[:n], and returns the
// positions where the loop stopped. It has no bounds checks: the caller
// must guarantee cap(dst) >= min(len(a), len(b)). dst may alias a.
//
//go:noescape
func mergeAVX2(dst, a, b []graph.VertexID) (i, j, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set, XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
