package minhash

import (
	"unsafe"

	"lshensemble/internal/segfile"
)

// haveAVX512 reports whether this CPU and OS run the AVX-512F kernels: CPUID
// leaf 7 lists AVX512F, leaf 1 lists POPCNT (which matchWidth8 counts with),
// and XGETBV (usable once CPUID shows OSXSAVE) reads an XCR0 in which the OS
// saves the XMM, YMM, opmask and both halves of the ZMM state (mask 0xE6).
var haveAVX512 = detectAVX512()

func detectAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 || ecx&(1<<23) == 0 { // OSXSAVE, POPCNT
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 // AVX512F
}

// pushVector folds hvs into sig's leading full groups of eight slots with
// the AVX-512 kernel and returns how many slots it covered: none when the CPU
// lacks AVX-512F. sig, a and b have equal lengths.
func pushVector(sig, a, b, hvs []uint64) int {
	n := len(a) &^ 7
	if !haveAVX512 || n == 0 {
		return 0
	}
	mulAddMin8(&sig[0], &a[0], &b[0], n/8, hvs)
	return n
}

// mulAddMin8 sets sig[i] = min(sig[i], min over v in hvs of
// (a[i]·v + b[i]) mod (2^61 − 1)) for i < 8·groups, with a, b and every v
// below 2^61. Implemented in kernel_amd64.s.
//
//go:noescape
func mulAddMin8(sig, a, b *uint64, groups int, hvs []uint64)

// matchVector counts the slots of s's leading full groups of eight that
// agree with q at s's width, with the AVX-512 kernel, and returns the count
// and how many slots it covered: none when the CPU lacks AVX-512F.
// len(q) ≥ len(s).
func matchVector[E segfile.Elem](s []E, q []uint64) (eq, n int) {
	n = len(s) &^ 7
	if !haveAVX512 || n == 0 {
		return 0, 0
	}
	w := int(unsafe.Sizeof(E(0)))
	return matchWidth8(unsafe.Pointer(&s[0]), &q[0], n/8, w, ^uint64(0)>>(64-8*w)), n
}

// matchWidth8 counts the i < 8·groups at which the w-byte value at s + w·i,
// zero-extended, agrees with q[i] under mask, the low 8·w bits. Implemented
// in kernel_amd64.s.
//
//go:noescape
func matchWidth8(s unsafe.Pointer, q *uint64, groups, w int, mask uint64) int

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
