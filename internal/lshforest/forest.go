// Package lshforest implements a MinHash LSH index with per-query (b, r) in
// the style of LSH Forest (Bawa, Condie, Ganesan, WWW 2005). A forest is
// built once, from all of its signatures (Build), and is immutable after:
// the index it serves (internal/core) never adds to a built partition.
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
// The store's element width is a Build argument: 8 bytes holds the
// full 61-bit minhash values, narrower widths (2, 4 bytes) hold b-bit
// truncations — the b-bit minwise backends of internal/core. The leading
// columns hold their values at LeadWidth (4 bytes under width 2): the store
// keeps each tree's lead high half beside a 2-byte row. Query signatures stay
// full-width []uint64 regardless; every compare site truncates the query value
// to the store's width, or a lead to the lead width, on the fly (see
// store.go).
package lshforest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lshensemble/internal/segfile"
)

// Forest is an immutable dynamic-(b,r) MinHash LSH index over integer
// domain ids. Build, DecodeForest and FromViewBytes return it with every
// tree sorted; it is safe for concurrent queries.
type Forest struct {
	numHash int
	rMax    int
	bMax    int
	width   int // bytes per stored hash value: 2, 4 or 8 (leads: LeadWidth)

	ids   []uint32   // caller-assigned id per entry, in slot order
	trees [][]uint32 // per tree: slot indices sorted by that tree's hash vector

	st sigstore // shape-typed signature store + per-tree leading-value columns
}

// newForest returns an empty forest of the given shape: numHash values per
// signature, trees of depth rMax in [1, numHash] (numHash/rMax of them,
// integer division), width bytes (2, 4 or 8) per stored value.
func newForest(numHash, rMax, width int) *Forest {
	if numHash <= 0 {
		panic("lshforest: numHash must be positive")
	}
	if rMax <= 0 || rMax > numHash {
		panic(fmt.Sprintf("lshforest: rMax %d out of range [1, %d]", rMax, numHash))
	}
	st := newStore(width, numHash, rMax)
	if st == nil {
		panic(fmt.Sprintf("lshforest: width %d not one of 2, 4, 8", width))
	}
	return &Forest{
		numHash: numHash,
		rMax:    rMax,
		bMax:    numHash / rMax,
		width:   width,
		st:      st,
	}
}

// Build returns the forest over len(ids) entries: entry i has id ids[i]
// (the forest keeps the slice) and signature sig(i), at least
// (numHash/rMax)·rMax values long. The store is sized once; each signature
// is copied into it cut to numHash values (zero-padded when shorter), with
// every value truncated to the low 8·width bits — the b-bit minwise
// truncation — and every tree's lead to the low 8·LeadWidth(width); query
// values are truncated to match at probe time. sig(i) is
// copied before sig(i+1) is asked for, so it may reuse one buffer. Every
// tree is then sorted, the trees fanned out over GOMAXPROCS workers.
func Build(numHash, rMax, width int, ids []uint32, sig func(i int) []uint64) *Forest {
	f := newForest(numHash, rMax, width)
	f.ids = ids
	if len(ids) > 0 {
		// An empty forest has nothing to sort; skipping the per-tree
		// allocations also keeps DecodeForest's cost proportional to its
		// input for empty encodings with an enormous declared numHash.
		f.st.fill(len(ids), f.bMax*f.rMax, sig)
		f.trees = f.st.sortTrees(len(ids), f.bMax)
	}
	return f
}

// NumHash returns the signature length the forest expects.
func (f *Forest) NumHash() int { return f.numHash }

// RMax returns the tree depth (maximum r usable at query time).
func (f *Forest) RMax() int { return f.rMax }

// BMax returns the number of trees (maximum b usable at query time).
func (f *Forest) BMax() int { return f.bMax }

// Width returns the store's element width in bytes (8 for full minwise,
// 2/4 for the b-bit truncated backends).
func (f *Forest) Width() int { return f.width }

// LeadWidth returns the bytes per value of the leading columns:
// LeadWidth(Width()).
func (f *Forest) LeadWidth() int { return LeadWidth(f.width) }

// Len returns the number of entries.
func (f *Forest) Len() int { return len(f.ids) }

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
// with nothing to rule out pass nil. A non-nil set in a Job must have
// TreeSetWords(B) words at least.
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

// Job is one forest's share of a Probe: the trees among the forest's first B
// that are in Trees (nil = all of them), probed at depth R.
type Job struct {
	Forest *Forest
	B, R   int
	Trees  TreeSet
}

// Probe reports to fn, job after job, every occurrence of an entry that
// matches sig at depth R in one of the job's trees, tree after tree (an id
// in several trees is reported once per tree; callers wanting a set dedup),
// and stops once fn returns false. Trees outside a job's set are not touched
// (see TreeSet). sig is full-width, at least BMax()*RMax() values for every
// job (callers validate; the kernel indexes it unchecked). The jobs' forests
// share one width, and their trees go through the probe's stages together
// (probeChunk). It panics on a (B, R) out of range, a set too short for B
// trees, or mixed widths.
func Probe(jobs []Job, sig []uint64, fn func(id uint32) bool) {
	for i := range jobs {
		j := &jobs[i]
		f := j.Forest
		if j.B <= 0 || j.B > f.bMax {
			panic(fmt.Sprintf("lshforest: b %d out of range [1, %d]", j.B, f.bMax))
		}
		if j.R <= 0 || j.R > f.rMax {
			panic(fmt.Sprintf("lshforest: r %d out of range [1, %d]", j.R, f.rMax))
		}
		if j.Trees != nil && len(j.Trees) < TreeSetWords(j.B) {
			panic(fmt.Sprintf("lshforest: tree set of %d words cannot cover %d trees", len(j.Trees), j.B))
		}
		if f.width != jobs[0].Forest.width {
			panic(fmt.Sprintf("lshforest: a probe of width %d cannot take a forest of width %d", jobs[0].Forest.width, f.width))
		}
	}
	if len(jobs) == 0 {
		return
	}
	// A type switch: a sigstore method would leak jobs and fn to the heap.
	switch jobs[0].Forest.st.(type) {
	case *tstore[uint16, uint32]:
		probe[uint16, uint32](jobs, sig, fn)
	case *tstore[uint32, uint32]:
		probe[uint32, uint32](jobs, sig, fn)
	case *tstore[uint64, uint64]:
		probe[uint64, uint64](jobs, sig, fn)
	}
}

// MatchCount returns the number of signature slots where the entry stored
// in the given slot (its position in Build's ids, [0, Len())) agrees with
// the query signature, truncated to the store's width. It is the
// allocation-free scoring primitive containment estimation builds on: a
// narrow store cannot hand out []uint64 views, but agreement counts only
// need the truncated values on both sides.
func (f *Forest) MatchCount(slot int, sig []uint64) int {
	return f.st.matchCount(slot, sig)
}

// AppendSigWidened appends the stored signature of the given slot, widened
// to uint64 values, to dst. For a full-width store the values are the
// original hash values; for a narrow store they are the stored truncations,
// every tree's lead at the lead width (truncation is idempotent, so building
// an equally narrow store from them is lossless).
func (f *Forest) AppendSigWidened(dst []uint64, slot int) []uint64 {
	return f.st.appendWidened(dst, slot)
}

// TreeLeadingColumn returns tree t's sorted column of leading hash values
// (the value at offset t*RMax of every stored signature, at the lead width)
// widened to uint64.
// Any probe of tree t at any depth r ≥ 1 matches an entry only if the
// query's leading value, truncated to the lead width, occurs in this column,
// which is what
// makes the column the cheap export segment-level planners (internal/live)
// build their collision filters from. For the 8-byte width
// the returned slice is a view into the forest's index (callers must not
// mutate it); narrower widths return a widened copy. It returns nil for an
// empty forest.
func (f *Forest) TreeLeadingColumn(t int) []uint64 {
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
//	  its row at native width, little-endian (AppendRow: sig[numHash], then
//	  under width 2 the high half of each of the numHash/rMax tree leads)
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

// DecodeForest decodes a forest from the front of buf, builds it (Build),
// and returns the remaining bytes. The entry count is held against the bytes
// left before anything is allocated (segfile.Reader.Count), so a hostile
// header cannot trigger an over-allocation: every allocation is bounded by a
// multiple of len(buf), and an empty forest allocates nothing regardless of
// its declared numHash.
func DecodeForest(buf []byte) (*Forest, []byte, error) {
	r := segfile.Reader{B: buf}
	width := 8
	switch string(r.Bytes(4)) {
	case string(forestMagic[:]):
	case string(forestMagicV2[:]):
		width = int(r.U32())
	default:
		return nil, r.B, ErrCorrupt
	}
	numHash, rMax := int(r.U32()), int(r.U32())
	if width != 2 && width != 4 && width != 8 || numHash <= 0 || rMax <= 0 || rMax > numHash {
		return nil, r.B, ErrCorrupt
	}
	// Each entry is its id and a row of width bytes per value: with width
	// checked, under 2^37 bytes, so the product cannot overflow.
	row := RowLen(numHash, rMax, width)
	stride := 4 + width*row
	n := r.Count(stride)
	body := r.Bytes(n * stride)
	if r.Short {
		return nil, r.B, ErrCorrupt
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint32(body[i*stride:])
	}
	var vals []uint64
	if n > 0 {
		vals = make([]uint64, numHash)
	}
	f := Build(numHash, rMax, width, ids, func(i int) []uint64 {
		ReadRow(vals, body[i*stride+4:], rMax, width)
		return vals
	})
	return f, r.B, nil
}
