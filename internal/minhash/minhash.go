// Package minhash implements minwise hashing (Broder 1997) for estimating
// Jaccard similarity and set cardinality from fixed-size signatures.
//
// A domain (a set of values) is summarized by a Signature of m 64-bit
// values, where the i-th slot holds the minimum of the i-th hash permutation
// over the domain. Two signatures produced by the same Hasher can estimate
// the Jaccard similarity of the underlying domains as the fraction of
// agreeing slots (Broder's collision probability identity, paper Eq. 4), and
// a single signature estimates the domain cardinality from the mean of its
// normalized minima (Cohen & Kaplan, bottom-k style).
//
// Sketching is the permutation kernel: min over the values v of
// (a_i·v + b_i) mod (2^61 − 1) for every slot i. It has two implementations
// that give the same words, because both compute that residue exactly. On
// amd64 CPUs with AVX-512F, each full group of eight slots runs in assembly
// (kernel_amd64.s), eight 64-bit lanes per instruction: a·v is assembled from
// four 32×32-bit VPMULUDQ partial products, folded with 2^61 ≡ 1 (so 2^64 ≡ 8)
// to below 2^64 with b added, folded once more to at most p + 7, and reduced
// with an unsigned minimum against s − p. The scalar Go loop (mulAddMod61)
// runs the slots left over (m mod 8), every slot on other CPUs and
// architectures, and is the reference the tests hold the assembly to. The
// path is chosen once at start-up from CPUID and XGETBV; nothing configures
// it.
package minhash

import (
	"fmt"
	"math/bits"
	"slices"

	"lshensemble/internal/segfile"
	"lshensemble/internal/xrand"
)

// MersennePrime is 2^61 - 1, the modulus of the universal hash family used
// for the permutations. Every signature slot holds a value in [0, MersennePrime);
// the value MersennePrime itself is reserved as the "empty" sentinel.
const MersennePrime uint64 = (1 << 61) - 1

// Empty is the sentinel stored in the slots of a signature over the empty
// domain. It is never produced by a hash permutation.
const Empty uint64 = MersennePrime

// Hasher holds a family of m universal hash permutations
// h_i(v) = (a_i * v + b_i) mod (2^61 - 1) with a_i in [1, p) and b_i in
// [0, p). All signatures meant to be compared must come from Hashers
// constructed with identical (m, seed).
type Hasher struct {
	a, b []uint64
	seed uint64
}

// NewHasher constructs a family of numHash permutations derived
// deterministically from seed. numHash must be positive.
func NewHasher(numHash int, seed uint64) *Hasher {
	if numHash <= 0 {
		panic("minhash: NewHasher requires numHash > 0")
	}
	rng := xrand.New(seed)
	h := &Hasher{
		a:    make([]uint64, numHash),
		b:    make([]uint64, numHash),
		seed: seed,
	}
	for i := 0; i < numHash; i++ {
		h.a[i] = rng.Uint64()%(MersennePrime-1) + 1 // [1, p)
		h.b[i] = rng.Uint64() % MersennePrime       // [0, p)
	}
	return h
}

// NumHash returns the number of permutations (signature length).
func (h *Hasher) NumHash() int { return len(h.a) }

// Seed returns the seed the family was derived from.
func (h *Hasher) Seed() uint64 { return h.seed }

// Signature is a MinHash sketch: m slot minima, each in [0, MersennePrime],
// where a slot equal to Empty means no value has been pushed.
type Signature []uint64

// NewSignature returns an empty signature with every slot set to Empty.
func (h *Hasher) NewSignature() Signature {
	s := make(Signature, len(h.a))
	for i := range s {
		s[i] = Empty
	}
	return s
}

// mulAddMod61 computes (a*v + b) mod (2^61 - 1) for a, v, b < 2^61. The
// 128-bit x = a*v + b is below 2^122, so with 2^61 ≡ 1 (mod p) one fold,
// (x >> 61) + (x & p), is below 2p and one conditional subtract finishes.
func mulAddMod61(a, v, b uint64) uint64 {
	hi, lo := bits.Mul64(a, v)
	lo, carry := bits.Add64(lo, b, 0)
	hi += carry
	// x >> 61 is hi<<3 | lo>>61; hi < 2^58, so nothing is shifted out.
	sum := (hi<<3 | lo>>61) + lo&MersennePrime
	if sum >= MersennePrime {
		sum -= MersennePrime
	}
	return sum
}

// HashBytes maps a raw value to a well-distributed 64-bit integer below
// MersennePrime. It is the base hash shared by every permutation; it is also
// used by the exact engine so that both see the same value identity.
func HashBytes(v []byte) uint64 {
	// FNV-1a 64-bit, then a splitmix64 finalizer to break FNV's weak
	// avalanche on short keys.
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, c := range v {
		h ^= uint64(c)
		h *= prime64
	}
	return xrand.Mix(h) % MersennePrime
}

// HashString is HashBytes for a string without forcing an allocation at the
// call site.
func HashString(s string) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return xrand.Mix(h) % MersennePrime
}

// HashUint64 maps an integer-valued domain element to the base hash space.
// Synthetic corpora use integer value identifiers; this avoids formatting
// them as strings.
func HashUint64(v uint64) uint64 {
	return xrand.Mix(v) % MersennePrime
}

// PushHashed folds an already base-hashed value (below 2^61, as HashBytes,
// HashString and HashUint64 return) into the signature.
func (h *Hasher) PushHashed(sig Signature, hv uint64) {
	h.PushHashedBlock(sig, []uint64{hv})
}

// sketchBlockSize bounds the number of base hashes the permutation-major
// inner loops stream over at once. 256 values (2 KiB) stay resident in L1
// across all permutations.
const sketchBlockSize = 256

// PushHashedBlock folds a block of already base-hashed values (each below
// 2^61) into the signature. It runs permutation-major over L1-sized chunks:
// for each group of permutations the (a_i, b_i) pairs stay in registers while
// the chunk streams through the cache once per group (eight slots in the
// vector kernel, four in the scalar one), and the slot minimum is written
// back once per chunk instead of once per value. This is the batched path
// corpus sketching should use.
func (h *Hasher) PushHashedBlock(sig Signature, hvs []uint64) {
	for len(hvs) > sketchBlockSize {
		h.pushHashedChunk(sig, hvs[:sketchBlockSize])
		hvs = hvs[sketchBlockSize:]
	}
	h.pushHashedChunk(sig, hvs)
}

// pushHashedChunk gives the vector kernel every full group of eight slots it
// takes and the scalar kernel the rest.
func (h *Hasher) pushHashedChunk(sig Signature, hvs []uint64) {
	sig = sig[:len(h.a)]
	i := pushVector(sig, h.a, h.b, hvs)
	pushScalar(sig[i:], h.a[i:], h.b[i:], hvs)
}

// pushScalar is the portable kernel: it folds hvs into sig[i] with
// permutation (ha[i], hb[i]), four slots at a time so that the CPU can
// overlap the four independent multiply chains.
func pushScalar(sig, ha, hb, hvs []uint64) {
	sig = sig[:len(ha)]
	hb = hb[:len(ha)]
	i := 0
	for ; i+4 <= len(ha); i += 4 {
		a0, b0 := ha[i], hb[i]
		a1, b1 := ha[i+1], hb[i+1]
		a2, b2 := ha[i+2], hb[i+2]
		a3, b3 := ha[i+3], hb[i+3]
		m0, m1, m2, m3 := sig[i], sig[i+1], sig[i+2], sig[i+3]
		for _, hv := range hvs {
			if x := mulAddMod61(a0, hv, b0); x < m0 {
				m0 = x
			}
			if x := mulAddMod61(a1, hv, b1); x < m1 {
				m1 = x
			}
			if x := mulAddMod61(a2, hv, b2); x < m2 {
				m2 = x
			}
			if x := mulAddMod61(a3, hv, b3); x < m3 {
				m3 = x
			}
		}
		sig[i], sig[i+1], sig[i+2], sig[i+3] = m0, m1, m2, m3
	}
	for ; i < len(ha); i++ {
		a, b := ha[i], hb[i]
		m := sig[i]
		for _, hv := range hvs {
			if x := mulAddMod61(a, hv, b); x < m {
				m = x
			}
		}
		sig[i] = m
	}
}

// Matches counts the slots i < len(s) at which the stored value s[i] equals
// q[i] cut to E's width: the agreement count of a store truncated to that
// width (b-bit minwise, Li & König) against a full-width query, which every
// containment score starts from. With AVX-512F each full group of eight
// slots is one instruction on the stored values widened as they load, the
// scalar loop runs the tail and every slot elsewhere. len(q) must be at
// least len(s).
func Matches[E segfile.Elem](s []E, q []uint64) int {
	q = q[:len(s)]
	eq, i := matchVector(s, q)
	for ; i < len(s); i++ {
		if s[i] == E(q[i]) {
			eq++
		}
	}
	return eq
}

// PushString folds a string value into the signature.
func (h *Hasher) PushString(sig Signature, s string) {
	h.PushHashed(sig, HashString(s))
}

// Sketch builds a signature over a slice of already base-hashed values.
func (h *Hasher) Sketch(hashedValues []uint64) Signature {
	sig := h.NewSignature()
	h.PushHashedBlock(sig, hashedValues)
	return sig
}

// sortDedupMax is the most values SketchDistinct dedups by sorting in place;
// past it a map is cheaper (on a 2-vCPU Xeon the two cross near 1 250
// values: 76 values 3.7 → 1.1 µs by sorting, 1 000 values 36 → 17 µs, 10 000
// values 388 → 894 µs).
const sortDedupMax = 1024

// SketchDistinct sketches the distinct values among hvs, base hashes below
// 2^61, with Sketch and says how many there were. It reorders hvs in place,
// the distinct values at the front.
func SketchDistinct(h *Hasher, hvs []uint64) (Signature, int) {
	if len(hvs) <= sortDedupMax {
		slices.Sort(hvs)
		n := len(slices.Compact(hvs))
		return h.Sketch(hvs[:n]), n
	}
	seen := make(map[uint64]struct{}, len(hvs))
	n := 0
	for _, hv := range hvs {
		if _, dup := seen[hv]; !dup {
			seen[hv] = struct{}{}
			hvs[n] = hv
			n++
		}
	}
	return h.Sketch(hvs[:n]), n
}

// SketchStrings builds a signature over a slice of string values.
func (h *Hasher) SketchStrings(values []string) Signature {
	sig := h.NewSignature()
	var block [sketchBlockSize]uint64
	n := 0
	for _, v := range values {
		block[n] = HashString(v)
		n++
		if n == len(block) {
			h.PushHashedBlock(sig, block[:])
			n = 0
		}
	}
	h.PushHashedBlock(sig, block[:n])
	return sig
}

// SketchUint64s builds a signature over a slice of integer-valued domain
// elements (base-hashed with HashUint64), batching through the block path.
func (h *Hasher) SketchUint64s(values []uint64) Signature {
	sig := h.NewSignature()
	var block [sketchBlockSize]uint64
	for len(values) > 0 {
		m := len(values)
		if m > len(block) {
			m = len(block)
		}
		for j := 0; j < m; j++ {
			block[j] = HashUint64(values[j])
		}
		h.PushHashedBlock(sig, block[:m])
		values = values[m:]
	}
	return sig
}

// Jaccard estimates the Jaccard similarity between the domains underlying s
// and o as the fraction of agreeing slots. The signatures must have equal
// length (same Hasher); it panics otherwise.
func (s Signature) Jaccard(o Signature) float64 {
	if len(s) != len(o) {
		panic(fmt.Sprintf("minhash: signature length mismatch %d vs %d", len(s), len(o)))
	}
	if len(s) == 0 {
		return 0
	}
	eq := 0
	for i := range s {
		if s[i] == o[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(s))
}

// Containment estimates the set containment t(Q, X) = |Q∩X|/|Q| of the
// query domain (s, with cardinality q) in the other domain (o, with
// cardinality x) by converting the estimated Jaccard similarity through the
// inclusion-exclusion identity (paper Eq. 6). Cardinalities must be positive.
func (s Signature) Containment(o Signature, q, x float64) float64 {
	j := s.Jaccard(o)
	if q <= 0 {
		return 0
	}
	t := (x/q + 1) * j / (1 + j)
	if t > 1 {
		t = 1
	}
	return t
}

// Merge sets s to the slot-wise minimum of s and o, which is the signature
// of the union of the underlying domains. The signatures must come from the
// same Hasher.
func (s Signature) Merge(o Signature) {
	if len(s) != len(o) {
		panic(fmt.Sprintf("minhash: signature length mismatch %d vs %d", len(s), len(o)))
	}
	for i := range s {
		if o[i] < s[i] {
			s[i] = o[i]
		}
	}
}

// Clone returns a copy of the signature.
func (s Signature) Clone() Signature {
	c := make(Signature, len(s))
	copy(c, s)
	return c
}

// IsEmpty reports whether no value has ever been pushed into s.
func (s Signature) IsEmpty() bool {
	for _, v := range s {
		if v != Empty {
			return false
		}
	}
	return true
}

// Cardinality estimates the number of distinct values in the underlying
// domain. With x distinct values, each slot minimum normalized to [0,1] has
// expectation 1/(x+1); the estimator inverts the mean of the normalized
// minima: x̂ = m / Σ(v_i/p) − 1. Returns 0 for an empty signature.
func (s Signature) Cardinality() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		if v == Empty {
			return 0 // any Empty slot implies the domain is empty
		}
		sum += float64(v) / float64(MersennePrime)
	}
	if sum <= 0 {
		return 0
	}
	est := float64(len(s))/sum - 1
	if est < 1 {
		est = 1
	}
	return est
}
