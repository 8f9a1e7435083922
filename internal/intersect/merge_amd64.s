#include "textflag.h"

// func mergeAVX2(dst, a, b []uint32) (i, j, n int)
//
// MergeAVX2 (§VII-A) in two loops, writing matches to dst in order.
//
// Block loop, while both inputs hold a full block of eight: every
// element of a's block is compared with every element of b's block (b's
// block rotated within and across its 128-bit halves, eight VPCMPEQD in
// all), the matching elements of a are stored one at a time, and the
// block with the smaller maximum advances (both on a tie).
//
// Tail loop, once one side has fewer than eight left: for each remaining
// element x of that short side, the long side's blocks whose maximum is
// below x are skipped with one compare each, and x is compared with the
// first block that may hold it. It stops when the long side has fewer
// than eight left; the caller merges what remains from a[i:], b[j:].
//
// A store never lands past the element of a it matched, and a slot of a
// that is overwritten holds a value below every element still to be
// compared with it, so dst may alias a. The caller guarantees
// cap(dst) >= min(len(a), len(b)).
TEXT ·mergeAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R8
	MOVQ b_base+48(FP), DX
	MOVQ b_len+56(FP), R9
	XORQ AX, AX // i
	XORQ BX, BX // j
	XORQ CX, CX // n
	SUBQ $8, R8 // last block start in a
	SUBQ $8, R9 // last block start in b
	JMP  check

block:
	VMOVDQU    (SI)(AX*4), Y0
	VMOVDQU    (DX)(BX*4), Y1
	VPCMPEQD   Y1, Y0, Y2
	VPSHUFD    $0x39, Y1, Y3
	VPCMPEQD   Y3, Y0, Y3
	VPOR       Y3, Y2, Y2
	VPSHUFD    $0x4e, Y1, Y3
	VPCMPEQD   Y3, Y0, Y3
	VPOR       Y3, Y2, Y2
	VPSHUFD    $0x93, Y1, Y3
	VPCMPEQD   Y3, Y0, Y3
	VPOR       Y3, Y2, Y2
	VPERM2I128 $0x01, Y1, Y1, Y1
	VPCMPEQD   Y1, Y0, Y3
	VPOR       Y3, Y2, Y2
	VPSHUFD    $0x39, Y1, Y3
	VPCMPEQD   Y3, Y0, Y3
	VPOR       Y3, Y2, Y2
	VPSHUFD    $0x4e, Y1, Y3
	VPCMPEQD   Y3, Y0, Y3
	VPOR       Y3, Y2, Y2
	VPSHUFD    $0x93, Y1, Y3
	VPCMPEQD   Y3, Y0, Y3
	VPOR       Y3, Y2, Y2
	VMOVMSKPS  Y2, R10
	TESTL      R10, R10
	JZ         advance

store:
	BSFL R10, R11
	ADDQ AX, R11
	MOVL (SI)(R11*4), R12
	MOVL R12, (DI)(CX*4)
	INCQ CX
	LEAL -1(R10), R11
	ANDL R11, R10
	JNZ  store

advance:
	MOVL    28(SI)(AX*4), R10 // max of a's block
	MOVL    28(DX)(BX*4), R11 // max of b's block
	LEAQ    8(AX), R12
	LEAQ    8(BX), R13
	CMPL    R10, R11
	CMOVQLS R12, AX
	CMOVQCC R13, BX

check:
	CMPQ AX, R8
	JGT  ashort
	CMPQ BX, R9
	JLE  block

	// b is the short side: short = (R10 base, R11 index, R12 len),
	// long = (R13 base, R8 index, R9 last block start), DX = 1.
	MOVQ DX, R10
	MOVQ BX, R11
	LEAQ 8(R9), R12
	MOVQ SI, R13
	MOVQ R8, R9
	MOVQ AX, R8
	MOVQ $1, DX
	JMP  tail

ashort:
	MOVQ SI, R10
	MOVQ AX, R11
	LEAQ 8(R8), R12
	MOVQ DX, R13
	MOVQ BX, R8
	XORQ DX, DX

tail:
	CMPQ R11, R12
	JGE  done
	CMPQ R8, R9
	JGT  done
	MOVL (R10)(R11*4), AX // x
	VPBROADCASTD (R10)(R11*4), Y0

skip:
	CMPL 28(R13)(R8*4), AX
	JCC  probe
	ADDQ $8, R8
	CMPQ R8, R9
	JLE  skip
	JMP  done

probe:
	VPCMPEQD (R13)(R8*4), Y0, Y1
	VPTEST   Y1, Y1
	JZ       next
	MOVL     AX, (DI)(CX*4)
	INCQ     CX

next:
	INCQ R11
	JMP  tail

done:
	VZEROUPPER
	MOVQ CX, n+88(FP)
	TESTQ DX, DX
	JNZ  swapped
	MOVQ R11, i+72(FP)
	MOVQ R8, j+80(FP)
	RET

swapped:
	MOVQ R8, i+72(FP)
	MOVQ R11, j+80(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
