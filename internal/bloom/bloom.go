// Package bloom implements the small, dependency-free Bloom filter the live
// index attaches to every sealed segment and to its unsealed buffer
// (internal/live's query planner). Two membership questions drive the design:
//
//   - "can this segment contain any LSH collision for this query?" — asked
//     with raw 61-bit MinHash values (the leading value of each forest
//     tree), which are already near-uniform, so the probe positions are
//     derived by one cheap mixing round instead of re-hashing;
//   - "can this segment still shadow this tombstoned key?" — asked with
//     string keys, hashed with FNV-1a before the same mixing round.
//
// A filter answers "maybe" with a tunable false-positive rate and "no" with
// certainty, which is exactly the contract segment pruning needs: a false
// positive costs one unnecessary probe, a false "no" would lose results and
// is impossible by construction. The bit array length is a power of two so
// probe positions come from a mask, not a modulo.
package bloom

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync/atomic"

	"lshensemble/internal/segfile"
)

// Filter is a standard Bloom filter using Kirsch–Mitzenmacher double
// hashing: the i-th probe position is h1 + i·h2 over a power-of-two bit
// array. The zero Filter is not usable; construct with New or Decode.
//
// MayContain calls are safe for concurrent use with each other and with
// AddHashShared calls, which may come from any number of goroutines: a
// reader sees every add that happens before it, and may or may not see a
// concurrent one. AddHash and AddString are plain stores for a filter built
// before it is published: they must not race with any other call.
type Filter struct {
	k     int      // probes per element
	mask  uint64   // len(words)*64 - 1; bit count is a power of two
	words []uint64 // the bit array
}

// New constructs a filter sized for n elements at bitsPerEntry bits each
// (rounded up to a power of two total), probing k positions per element.
// Standard operating points: 10 bits/entry with k = 7 gives ~1% false
// positives, 14 bits/entry with k = 10 gives ~0.1%.
func New(n, bitsPerEntry, k int) *Filter {
	if n < 1 {
		n = 1
	}
	if bitsPerEntry < 1 {
		bitsPerEntry = 1
	}
	if k < 1 {
		k = 1
	}
	bitCount := uint64(n) * uint64(bitsPerEntry)
	if bitCount < 64 {
		bitCount = 64
	}
	// Round up to a power of two so probe positions are a mask away.
	if bitCount&(bitCount-1) != 0 {
		bitCount = 1 << bits.Len64(bitCount)
	}
	return &Filter{
		k:     k,
		mask:  bitCount - 1,
		words: make([]uint64, bitCount/64),
	}
}

// K returns the number of probe positions per element.
func (f *Filter) K() int { return f.k }

// Bits returns the length of the bit array.
func (f *Filter) Bits() int { return len(f.words) * 64 }

// SizeBytes returns the memory footprint of the bit array.
func (f *Filter) SizeBytes() int { return len(f.words) * 8 }

// Mix is the splitmix64 finalizer — one round is enough to decorrelate the
// probe sequence from structured inputs (sequential FNV outputs, biased
// MinHash values). Exported for the live index's other hashed tables.
func Mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// probes derives the double-hashing pair for an element. h2 is forced odd
// so the probe sequence walks the full power-of-two array without cycling.
func probes(h uint64) (h1, h2 uint64) {
	h1 = Mix(h)
	h2 = Mix(h1) | 1
	return h1, h2
}

// AddHash inserts an element identified by a 64-bit hash (for MinHash
// values, the value itself) into a filter no other goroutine can reach yet.
func (f *Filter) AddHash(h uint64) {
	h1, h2 := probes(h)
	for i := 0; i < f.k; i++ {
		pos := h1 & f.mask
		f.words[pos>>6] |= 1 << (pos & 63)
		h1 += h2
	}
}

// AddHashShared inserts like AddHash into a filter that is read while it
// grows. It sets the same bits with a compare-and-swap loop (not an atomic
// Or, which Go 1.22 predates).
func (f *Filter) AddHashShared(h uint64) {
	h1, h2 := probes(h)
	for i := 0; i < f.k; i++ {
		pos := h1 & f.mask
		w, bit := &f.words[pos>>6], uint64(1)<<(pos&63)
		for {
			old := atomic.LoadUint64(w)
			if old&bit != 0 || atomic.CompareAndSwapUint64(w, old, old|bit) {
				break
			}
		}
		h1 += h2
	}
}

// MayContainHash reports whether the element identified by h might have
// been added. False means definitely not.
func (f *Filter) MayContainHash(h uint64) bool {
	h1, h2 := probes(h)
	for i := 0; i < f.k; i++ {
		pos := h1 & f.mask
		if atomic.LoadUint64(&f.words[pos>>6])&(1<<(pos&63)) == 0 {
			return false
		}
		h1 += h2
	}
	return true
}

// HashString is the FNV-1a hash the string element paths use. Exposed so
// callers probing many filters with the same key hash it once.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// AddString inserts a string element.
func (f *Filter) AddString(s string) { f.AddHash(HashString(s)) }

// MayContainString reports whether the string element might have been
// added. False means definitely not.
func (f *Filter) MayContainString(s string) bool { return f.MayContainHash(HashString(s)) }

// ErrCorrupt reports a malformed filter encoding.
var ErrCorrupt = errors.New("bloom: corrupt filter encoding")

// AppendBinary appends the filter's encoding to buf:
// k u32 | nwords u32 | words [nwords]u64 (all little-endian).
// The encoding is a pure function of the inserted set and the construction
// parameters, so equal filters encode identically.
func (f *Filter) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.k))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.words)))
	for _, w := range f.words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// Decode reconstructs a filter from the front of buf and returns the
// remaining bytes.
func Decode(buf []byte) (*Filter, []byte, error) {
	r := segfile.Reader{B: buf}
	k := int(r.U32())
	words := make([]uint64, r.Count(8))
	for i := range words {
		words[i] = r.U64()
	}
	// The bit count must be a power of two or the probe mask is wrong, and
	// every query runs all k probes (internal/live's filters use 7 or 10).
	n := len(words)
	if r.Short || k < 1 || k > 32 || n < 1 || n&(n-1) != 0 {
		return nil, r.B, ErrCorrupt
	}
	return &Filter{k: k, mask: uint64(n)*64 - 1, words: words}, r.B, nil
}
