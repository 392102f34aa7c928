#include "textflag.h"

// func mulAddMin8(sig, a, b *uint64, groups int, hvs []uint64)
//
// For each group of eight slots: a, a_hi = a >> 32, 8·a_hi, b and the eight
// running minima stay in registers while the values stream past. Per value
// v (v_hi = v >> 32, both halves and a_hi below 2^29 since a, v < 2^61):
//
//	a·v = a_hi·v_hi·2^64 + mid·2^32 + lo, mid = a_hi·v_lo + a_lo·v_hi < 2^62
//	2^64 ≡ 8:        a_hi·v_hi·2^64 ≡ (8·a_hi)·v_hi            < 2^61
//	2^61 ≡ 1:        mid·2^32 ≡ (mid >> 29) + ((mid << 32) & p) < 2^33 + 2^61
//	                 lo ≡ (lo >> 61) + (lo & p)                  < 8 + 2^61
//
// With b the six terms sum below 2^64; one more fold leaves s ≤ p + 7, and
// min(s, s − p) as unsigned words is s mod p (s − p wraps when s < p).
TEXT ·mulAddMin8(SB), NOSPLIT, $0-56
	MOVQ sig+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ groups+24(FP), CX
	MOVQ hvs_base+32(FP), R8
	MOVQ hvs_len+40(FP), R9
	TESTQ R9, R9
	JZ   done
	TESTQ CX, CX
	JZ   done
	MOVQ $0x1fffffffffffffff, AX
	VPBROADCASTQ AX, Z11

group:
	VMOVDQU64 (SI), Z0     // a; VPMULUDQ reads its low half, a_lo
	VPSRLQ    $32, Z0, Z1  // a_hi
	VPSLLQ    $3, Z1, Z2   // 8·a_hi
	VMOVDQU64 (DX), Z3     // b
	VMOVDQU64 (DI), Z4     // running minima
	MOVQ      R8, R10
	MOVQ      R9, R11

value:
	VPBROADCASTQ (R10), Z5  // v; VPMULUDQ reads v_lo
	VPBROADCASTD 4(R10), Z6 // v_hi in every low half
	VPMULUDQ     Z5, Z0, Z7 // lo = a_lo·v_lo
	VPMULUDQ     Z5, Z1, Z8 // a_hi·v_lo
	VPMULUDQ     Z6, Z0, Z9 // a_lo·v_hi
	VPMULUDQ     Z6, Z2, Z10 // 8·a_hi·v_hi
	VPADDQ       Z9, Z8, Z8  // mid
	VPSRLQ       $29, Z8, Z9
	VPSLLQ       $32, Z8, Z8
	VPANDQ       Z11, Z8, Z8
	VPADDQ       Z9, Z10, Z10
	VPADDQ       Z8, Z10, Z10
	VPSRLQ       $61, Z7, Z9
	VPANDQ       Z11, Z7, Z7
	VPADDQ       Z9, Z3, Z9  // (lo >> 61) + b
	VPADDQ       Z7, Z10, Z10
	VPADDQ       Z9, Z10, Z10 // s < 2^64
	VPSRLQ       $61, Z10, Z9
	VPANDQ       Z11, Z10, Z10
	VPADDQ       Z9, Z10, Z10 // s ≤ p + 7
	VPSUBQ       Z11, Z10, Z9
	VPMINUQ      Z9, Z10, Z10 // s mod p
	VPMINUQ      Z10, Z4, Z4
	ADDQ         $8, R10
	DECQ         R11
	JNZ          value

	VMOVDQU64 Z4, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	DECQ      CX
	JNZ       group
	VZEROUPPER // clears only Z0–Z15's upper halves, hence no register above Z11

done:
	RET

// func matchWidth8(s unsafe.Pointer, q *uint64, groups, w int, mask uint64) int
//
// Per group of eight slots: the eight stored values load zero-extended to
// quadwords (VPMOVZX by width, a plain load at 8 bytes), VPTESTNMQ sets bit
// i of K1 where (s[i] XOR q[i]) AND mask is zero, and POPCNT adds those bits
// to the count. The width picks the loop once.
#define COUNT(STRIDE, LOOP) \
	VPXORQ    (DI), Z0, Z0 \
	VPTESTNMQ Z2, Z0, K1   \
	KMOVW     K1, AX       \
	POPCNTL   AX, AX       \
	ADDQ      AX, BX       \
	ADDQ      $STRIDE, SI  \
	ADDQ      $64, DI      \
	DECQ      CX           \
	JNZ       LOOP         \
	JMP       matched

TEXT ·matchWidth8(SB), NOSPLIT, $0-48
	MOVQ         s+0(FP), SI
	MOVQ         q+8(FP), DI
	MOVQ         groups+16(FP), CX
	MOVQ         w+24(FP), DX
	VPBROADCASTQ mask+32(FP), Z2
	XORQ         BX, BX
	CMPQ         DX, $2
	JEQ          w2
	CMPQ         DX, $4
	JEQ          w4

w8:
	VMOVDQU64 (SI), Z0
	COUNT(64, w8)

w4:
	VPMOVZXDQ (SI), Z0
	COUNT(32, w4)

w2:
	VPMOVZXWQ (SI), Z0
	COUNT(16, w2)

matched:
	VZEROUPPER
	MOVQ BX, ret+40(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
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
