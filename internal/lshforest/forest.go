// Package lshforest implements a dynamic MinHash LSH index in the style of
// LSH Forest (Bawa, Condie, Ganesan, WWW 2005).
//
// A classic MinHash LSH has a fixed banding configuration (b bands of r hash
// values each) and therefore a fixed Jaccard threshold. LSH Ensemble needs a
// per-query threshold, so the index must support choosing (b, r) at query
// time. Following the LSH Forest idea, the signature is divided into bMax
// fixed "trees", each covering rMax consecutive hash values; a query probes
// the first b trees and, within each tree, matches only the first r of its
// rMax values. Prefix trees are realized as arrays sorted lexicographically
// by the tree's hash-value vector, so a variable-depth prefix probe is a
// binary-searched range scan. This supports any (b, r) with b ≤ bMax and
// r ≤ rMax, hence b·r ≤ bMax·rMax ≤ m as required by the paper's tuning
// constraint (Eq. 25).
//
// Storage layout: all signatures live in one contiguous backing store with
// stride numHash, and every tree additionally keeps a flat column of its
// first hash value in sorted order. Probes binary-search that contiguous
// column (no pointer chasing through per-entry slice headers) and only fall
// back to the backing store to resolve prefixes deeper than one value. Trees
// are built with an LSD radix sort on the leading hash value — hash values
// are near-uniform, so ties needing the deeper comparison sort are rare.
//
// The store's element width is configurable (NewWidth): 8 bytes holds the
// full 61-bit minhash values, narrower widths (1, 2, 4 bytes) hold b-bit
// truncations — the b-bit minwise backends of internal/core. Query
// signatures stay full-width []uint64 regardless; every compare site
// truncates the query value to the store's width on the fly (see store.go).
package lshforest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"lshensemble/internal/par"
)

// Forest is a dynamic-(b,r) MinHash LSH index over integer domain ids.
// Ids are assigned by the caller; signatures must all have the same length,
// at least BMax()*RMax(). Add entries, call Index once, then Query.
type Forest struct {
	numHash int
	rMax    int
	bMax    int
	width   int // bytes per stored hash value: 1, 2, 4 or 8

	ids   []uint32   // caller-assigned id per inserted entry
	trees [][]uint32 // per tree: slot indices sorted by that tree's hash vector

	st sigstore // width-typed signature store + per-tree leading-value columns

	indexed bool
	view    bool // FromViewBytes forest over external (possibly mapped) storage: mutation panics
}

// New constructs a forest for signatures of numHash values with trees of
// depth rMax, storing full-width (8-byte) hash values. The number of trees
// is numHash/rMax (integer division); rMax must be in [1, numHash].
func New(numHash, rMax int) *Forest { return NewWidth(numHash, rMax, 8) }

// NewWidth is New with an explicit store element width in bytes (1, 2, 4 or
// 8). Narrow widths store the low 8·width bits of each hash value — the
// b-bit minwise truncation — and truncate query values to match at probe
// time.
func NewWidth(numHash, rMax, width int) *Forest {
	if numHash <= 0 {
		panic("lshforest: numHash must be positive")
	}
	if rMax <= 0 || rMax > numHash {
		panic(fmt.Sprintf("lshforest: rMax %d out of range [1, %d]", rMax, numHash))
	}
	st := newStore(width, numHash, rMax)
	if st == nil {
		panic(fmt.Sprintf("lshforest: width %d not one of 1, 2, 4, 8", width))
	}
	return &Forest{
		numHash: numHash,
		rMax:    rMax,
		bMax:    numHash / rMax,
		width:   width,
		st:      st,
	}
}

// NumHash returns the signature length the forest expects.
func (f *Forest) NumHash() int { return f.numHash }

// RMax returns the tree depth (maximum r usable at query time).
func (f *Forest) RMax() int { return f.rMax }

// BMax returns the number of trees (maximum b usable at query time).
func (f *Forest) BMax() int { return f.bMax }

// Width returns the store's element width in bytes (8 for full minwise,
// 1/2/4 for the b-bit truncated backends).
func (f *Forest) Width() int { return f.width }

// Len returns the number of entries added.
func (f *Forest) Len() int { return len(f.ids) }

// Indexed reports whether Index has been called since the last Add.
func (f *Forest) Indexed() bool { return f.indexed }

// Reserve grows the forest's backing arrays so they can hold at least n
// total entries without reallocating. Builds of known size should call it
// once up front: the contiguous signature store is then allocated in a
// single step instead of grown by repeated append (which copies the whole
// store every doubling). Reserve never shrinks and is a no-op when capacity
// already suffices.
func (f *Forest) Reserve(n int) {
	if f.view {
		panic("lshforest: Reserve on a read-only view")
	}
	if n <= 0 {
		return
	}
	if cap(f.ids) < n {
		ids := make([]uint32, len(f.ids), n)
		copy(ids, f.ids)
		f.ids = ids
	}
	f.st.reserveValues(n * f.numHash)
}

// Add inserts a (id, signature) pair. The signature is copied into the
// forest's contiguous backing store, truncated to the store's width; the
// caller keeps ownership of sig. Add invalidates the index; call Index
// before querying again.
func (f *Forest) Add(id uint32, sig []uint64) {
	if f.view {
		panic("lshforest: Add on a read-only view")
	}
	if len(sig) < f.bMax*f.rMax {
		panic(fmt.Sprintf("lshforest: signature length %d < required %d", len(sig), f.bMax*f.rMax))
	}
	n := f.numHash
	if len(sig) > n {
		sig = sig[:n]
	}
	f.st.appendSig(sig)
	// Signatures shorter than numHash (allowed when bMax*rMax < numHash)
	// are zero-padded so every entry occupies exactly one stride.
	f.st.appendZeros(n - len(sig))
	f.ids = append(f.ids, id)
	f.indexed = false
}

// SortScratch is the per-worker working memory of a tree rebuild: the radix
// sort ping-pongs between the order/keys arrays and these temporaries. One
// scratch serves any number of sequential RebuildTree calls (it grows to the
// largest forest it has seen); distinct concurrent workers must each own
// their own.
type SortScratch struct {
	tmpOrder []uint32
	keys     []uint64
	tmpKeys  []uint64
}

func (s *SortScratch) grow(n int) {
	if cap(s.tmpOrder) < n {
		s.tmpOrder = make([]uint32, n)
		s.keys = make([]uint64, n)
		s.tmpKeys = make([]uint64, n)
	}
}

// PrepareTrees readies the forest for per-tree rebuilds and returns the
// number of independent tree jobs to run (one per tree, indices
// [0, BMax())). An empty forest has nothing to sort: it is finalized
// immediately and 0 is returned — skipping the per-tree allocations also
// keeps DecodeForest's cost proportional to its input for empty encodings
// with an enormous declared numHash.
//
// After PrepareTrees, RebuildTree may be called for every job index (from
// any goroutine, each index exactly once), followed by one FinishTrees.
// Index and IndexParallel wrap this sequence.
func (f *Forest) PrepareTrees() int {
	if f.view {
		// Rebuilding would write into the externally owned (possibly mapped
		// read-only) order/column arrays.
		panic("lshforest: PrepareTrees on a read-only view")
	}
	if len(f.ids) == 0 {
		f.indexed = true
		return 0
	}
	if f.trees == nil {
		f.trees = make([][]uint32, f.bMax)
	}
	f.st.prepareTrees(f.bMax)
	return f.bMax
}

// RebuildTree sorts tree t from the current backing store using the given
// scratch. Distinct trees touch disjoint forest state, so RebuildTree is
// safe to call concurrently for distinct t (with distinct scratches)
// between PrepareTrees and FinishTrees.
func (f *Forest) RebuildTree(t int, s *SortScratch) {
	n := len(f.ids)
	s.grow(n)
	order := f.trees[t]
	if cap(order) < n {
		order = make([]uint32, n)
	}
	order = order[:n]
	for i := range order {
		order[i] = uint32(i)
	}
	f.st.rebuildTree(t, order, s)
	f.trees[t] = order
}

// FinishTrees marks the forest indexed after every RebuildTree job has
// completed.
func (f *Forest) FinishTrees() { f.indexed = true }

// Index (re)builds the sorted trees. It is idempotent and must be called
// after the last Add and before the first Query.
func (f *Forest) Index() {
	jobs := f.PrepareTrees()
	if jobs == 0 {
		return
	}
	var s SortScratch
	for t := 0; t < jobs; t++ {
		f.RebuildTree(t, &s)
	}
	f.FinishTrees()
}

// IndexParallel is Index with the per-tree sorts fanned out over up to
// `workers` goroutines (each with its own SortScratch). workers ≤ 1 falls
// back to the serial path. The resulting trees are identical to Index's.
func (f *Forest) IndexParallel(workers int) {
	jobs := f.PrepareTrees()
	if jobs == 0 {
		return
	}
	workers = par.Clamp(workers, jobs)
	scratches := make([]SortScratch, workers)
	par.Drain(jobs, workers, func(w, t int) {
		f.RebuildTree(t, &scratches[w])
	})
	f.FinishTrees()
}

// radixSortPairs sorts (keys, vals) pairs by key with an LSD byte-wise radix
// sort, skipping passes over bytes that are constant across all keys (hash
// values occupy 61 bits — or 8·width bits in a truncated store — and small
// test universes collapse to one or two live bytes). The sorted result is
// guaranteed to land back in keys/vals; tmpKeys/tmpVals are scratch of the
// same length.
func radixSortPairs(keys []uint64, vals []uint32, tmpKeys []uint64, tmpVals []uint32) {
	orAll, andAll := uint64(0), ^uint64(0)
	for _, k := range keys {
		orAll |= k
		andAll &= k
	}
	diff := orAll ^ andAll // bytes where any two keys disagree
	if diff == 0 {
		return
	}
	origKeys, origVals := keys, vals
	var count [256]int
	flipped := false
	for shift := 0; shift < 64; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		for i := range count {
			count[i] = 0
		}
		for _, k := range keys {
			count[(k>>shift)&0xff]++
		}
		sum := 0
		for i := 0; i < 256; i++ {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for i, k := range keys {
			b := (k >> shift) & 0xff
			j := count[b]
			count[b]++
			tmpKeys[j] = k
			tmpVals[j] = vals[i]
		}
		keys, tmpKeys = tmpKeys, keys
		vals, tmpVals = tmpVals, vals
		flipped = !flipped
	}
	if flipped {
		copy(origKeys, keys)
		copy(origVals, vals)
	}
}

// TreeSet is a set of tree indices: bit t%64 of word t/64 is set iff tree t
// is a member. The nil TreeSet is the full set — every tree — so callers
// with nothing to rule out pass nil. A non-nil set handed to Query must have
// TreeSetWords(b) words at least.
//
// A probe of tree t at any depth r ≥ 1 matches an entry only if the query's
// (truncated) leading value sig[t·RMax] occurs in the tree's leading column,
// so a caller that can tell which columns may hold that value restricts the
// probe to those trees and loses no candidate. A set belongs to one forest:
// internal/live keeps one per partition of a segment, filled from two filters
// over the leading columns — which trees, then which partitions.
type TreeSet []uint64

// TreeSetWords returns the number of words a TreeSet over trees [0, b) has.
func TreeSetWords(b int) int { return (b + 63) / 64 }

// Add inserts tree t.
func (s TreeSet) Add(t int) { s[t>>6] |= 1 << (uint(t) & 63) }

// Has reports whether tree t is a member (always, for the nil set).
func (s TreeSet) Has(t int) bool { return s == nil || s[t>>6]>>(uint(t)&63)&1 != 0 }

// Empty reports whether the set holds no tree (never, for the nil set).
func (s TreeSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return s != nil
}

// Query probes, at depth r, those of the first b trees that are in the set
// (nil = all of them) and invokes fn once per *occurrence* of a matching
// entry (the same id may be reported from multiple trees; callers wanting set
// semantics dedup). Trees outside the set are not touched at all. Restricted
// to a set that holds every tree whose leading column contains the query's
// leading value, Query reports exactly what the unrestricted probe reports,
// in the same order (see TreeSet). fn returning false stops the scan early.
// The query signature is full-width, at least BMax()*RMax() values (callers
// validate; the kernel indexes it unchecked); a narrow store truncates each
// compared query value to its width on the fly. It panics if the forest is
// not indexed, if (b, r) is out of range, or if a non-nil set is too short.
func (f *Forest) Query(sig []uint64, b, r int, trees TreeSet, fn func(id uint32) bool) {
	if !f.indexed {
		panic("lshforest: Query before Index")
	}
	if b <= 0 || b > f.bMax {
		panic(fmt.Sprintf("lshforest: b %d out of range [1, %d]", b, f.bMax))
	}
	if r <= 0 || r > f.rMax {
		panic(fmt.Sprintf("lshforest: r %d out of range [1, %d]", r, f.rMax))
	}
	if trees != nil && len(trees) < TreeSetWords(b) {
		panic(fmt.Sprintf("lshforest: tree set of %d words cannot cover %d trees", len(trees), b))
	}
	if len(f.ids) == 0 {
		return // indexed empty forest has no trees to probe
	}
	f.st.query(f.ids, f.trees, sig, b, r, trees, fn)
}

// MatchCount returns the number of signature slots where the entry stored
// in the given slot (insertion position, [0, Len())) agrees with the query
// signature, truncated to the store's width. It is the allocation-free
// scoring primitive containment estimation builds on: a narrow store cannot
// hand out []uint64 views, but agreement counts only need the truncated
// values on both sides.
func (f *Forest) MatchCount(slot int, sig []uint64) int {
	return f.st.matchCount(slot, sig)
}

// AppendSigWidened appends the stored signature of the given slot, widened
// to uint64 values, to dst. For a full-width store the values are the
// original hash values; for a narrow store they are the stored truncations
// (truncation is idempotent, so re-adding them to an equally narrow store is
// lossless).
func (f *Forest) AppendSigWidened(dst []uint64, slot int) []uint64 {
	return f.st.appendWidened(dst, slot)
}

// TreeLeadingColumn returns tree t's sorted column of leading hash values
// (the value at offset t*RMax of every stored signature) widened to uint64.
// Any probe of tree t at any depth r ≥ 1 matches an entry only if the
// query's (truncated) leading value occurs in this column, which is what
// makes the column the cheap export segment-level planners (internal/live)
// build their collision filters from. For the 8-byte width
// the returned slice is a view into the forest's index (callers must not
// mutate it); narrower widths return a widened copy. It returns nil for an
// empty forest and panics before Index.
func (f *Forest) TreeLeadingColumn(t int) []uint64 {
	if !f.indexed {
		panic("lshforest: TreeLeadingColumn before Index")
	}
	if t < 0 || t >= f.bMax {
		panic(fmt.Sprintf("lshforest: tree %d out of range [0, %d)", t, f.bMax))
	}
	if len(f.ids) == 0 {
		return nil
	}
	return f.st.leadingColumn64(t, len(f.ids))
}

// binary serialization formats:
//
//	v1 (8-byte stores, unchanged since PR 1 — golden-bytes compatible):
//	  magic "LSHF" | numHash | rMax | n | per entry: id, sig[numHash] as u64
//	v2 (any width):
//	  magic "LSF2" | width | numHash | rMax | n | per entry: id,
//	  sig[numHash] at native width, little-endian
//
// Trees are rebuilt on load (sorting is cheaper than storing permutations).
// AppendBinary emits v1 for 8-byte stores so existing fixtures stay
// byte-identical, v2 otherwise; DecodeForest reads both.

var (
	forestMagic   = [4]byte{'L', 'S', 'H', 'F'}
	forestMagicV2 = [4]byte{'L', 'S', 'F', '2'}
)

// ErrCorrupt reports a malformed forest encoding.
var ErrCorrupt = errors.New("lshforest: corrupt encoding")

// AppendBinary appends the forest's binary encoding to buf.
func (f *Forest) AppendBinary(buf []byte) []byte {
	if f.width == 8 {
		buf = append(buf, forestMagic[:]...)
	} else {
		buf = append(buf, forestMagicV2[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.width))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.numHash))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.rMax))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.ids)))
	for i, id := range f.ids {
		buf = binary.LittleEndian.AppendUint32(buf, id)
		buf = f.st.appendEntryLE(buf, i)
	}
	return buf
}

// DecodeForest decodes a forest from the front of buf, rebuilds its trees,
// and returns the remaining bytes. Header fields are validated against the
// actual buffer length in 64-bit arithmetic before any allocation, so a
// hostile header cannot trigger integer overflow or an over-allocation:
// with n >= 1 every allocation is bounded by a multiple of len(buf), and an
// empty forest allocates nothing regardless of its declared numHash.
func DecodeForest(buf []byte) (*Forest, []byte, error) {
	if len(buf) < 4 {
		return nil, buf, ErrCorrupt
	}
	width := 8
	switch [4]byte(buf[:4]) {
	case forestMagic:
		buf = buf[4:]
	case forestMagicV2:
		if len(buf) < 8 {
			return nil, buf, ErrCorrupt
		}
		width = int(binary.LittleEndian.Uint32(buf[4:]))
		buf = buf[8:]
		if width != 1 && width != 2 && width != 4 && width != 8 {
			return nil, buf, ErrCorrupt
		}
	default:
		return nil, buf, ErrCorrupt
	}
	if len(buf) < 12 {
		return nil, buf, ErrCorrupt
	}
	numHash := int(binary.LittleEndian.Uint32(buf))
	rMax := int(binary.LittleEndian.Uint32(buf[4:]))
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	buf = buf[12:]
	if numHash <= 0 || rMax <= 0 || rMax > numHash || n < 0 {
		return nil, buf, ErrCorrupt
	}
	// Each entry occupies 4 + width*numHash bytes. Both factors come from
	// attacker-controlled uint32 header fields, so the product can exceed
	// 63 bits; dividing the known-good buffer length instead of multiplying
	// keeps the check overflow-free.
	perEntry := 4 + uint64(width)*uint64(uint32(numHash))
	if uint64(n) > uint64(len(buf))/perEntry {
		return nil, buf, ErrCorrupt
	}
	f := NewWidth(numHash, rMax, width)
	f.ids = make([]uint32, n)
	f.st.reserveValues(n * numHash)
	for i := 0; i < n; i++ {
		f.ids[i] = binary.LittleEndian.Uint32(buf)
		buf = f.st.decodeAppendSig(buf[4:])
	}
	f.IndexParallel(runtime.GOMAXPROCS(0))
	return f, buf, nil
}
