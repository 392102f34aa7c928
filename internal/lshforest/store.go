package lshforest

import (
	"fmt"
	"math/bits"
	"unsafe"

	"lshensemble/internal/par"
	"lshensemble/internal/segfile"
)

// viewLE casts a little-endian byte region to a typed value slice —
// zero-copy on little-endian hosts (segfile.View), a decoding copy
// elsewhere.
func viewLE[E elem](b []byte) []E { return segfile.View[E](b) }

// This file is the element-width generalization of the forest's flat
// storage: the contiguous signature store and the per-tree sorted
// leading-value columns are held at a configurable element width (1, 2, 4 or
// 8 bytes per hash value) behind the sigstore interface, with one
// monomorphized implementation per width (tstore[E]). Narrow widths are the
// b-bit minwise backends (Li & König): a stored value is the low 8·width
// bits of the 64-bit minhash value, and a query-side value is truncated to
// the same width on the fly at every compare site — the Go conversion
// E(v) keeps exactly the low bits, so truncation costs nothing and query
// signatures stay full-width []uint64 throughout the API.
//
// Truncation to the low b bits is idempotent (truncating an
// already-truncated value is the identity), so signatures read back from a
// narrow store can be re-added to another narrow store — the merge path of
// internal/live relies on this.

// elem is the set of storable hash-value widths.
type elem interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// sigstore is the width-erased interface the Forest wrapper dispatches
// through — one virtual call per operation, with the loops inside
// monomorphized per width.
type sigstore interface {
	valueCount() int
	fill(n, need int, sig func(i int) []uint64)
	sortTrees(n, bMax int) [][]uint32
	query(ids []uint32, trees [][]uint32, sig []uint64, b, r int, set TreeSet, fn func(id uint32) bool)
	matchCount(slot int, sig []uint64) int
	appendWidened(dst []uint64, slot int) []uint64
	leadingColumn64(t, n int) []uint64
	appendEntryLE(buf []byte, slot int) []byte
	writeStoreLE(dst []byte)
	writeTreeKeysLE(t int, dst []byte)
	viewFrom(store []byte, keys [][]byte)
}

// tstore is the width-typed half of a Forest: the contiguous signature store
// (stride numHash) and the per-tree sorted leading-value columns.
type tstore[E elem] struct {
	numHash, rMax int
	store         []E
	treeKeys      [][]E
}

func newStore(widthBytes, numHash, rMax int) sigstore {
	switch widthBytes {
	case 1:
		return &tstore[uint8]{numHash: numHash, rMax: rMax}
	case 2:
		return &tstore[uint16]{numHash: numHash, rMax: rMax}
	case 4:
		return &tstore[uint32]{numHash: numHash, rMax: rMax}
	case 8:
		return &tstore[uint64]{numHash: numHash, rMax: rMax}
	default:
		return nil
	}
}

func (ts *tstore[E]) width() int      { return int(unsafe.Sizeof(E(0))) }
func (ts *tstore[E]) valueCount() int { return len(ts.store) }

// fill sizes the store for n signatures once and copies sig(i) into slot i,
// cut to numHash values (the zeroed store pads a shorter one) and truncated
// to the store's width. Each signature must hold at least need values.
func (ts *tstore[E]) fill(n, need int, sig func(i int) []uint64) {
	ts.store = make([]E, n*ts.numHash)
	for i := 0; i < n; i++ {
		s := sig(i)
		if len(s) < need {
			panic(fmt.Sprintf("lshforest: signature length %d < required %d", len(s), need))
		}
		dst := ts.store[i*ts.numHash : (i+1)*ts.numHash]
		for k, v := range s[:min(len(s), len(dst))] {
			dst[k] = E(v)
		}
	}
}

// sortScratch is one worker's working memory for tree sorts: the radix sort
// ping-pongs between the order/keys arrays and these temporaries.
type sortScratch struct {
	tmpOrder []uint32
	keys     []uint64
	tmpKeys  []uint64
}

// sortTrees sorts each of the bMax trees of the n-entry store, fanned out
// over up to GOMAXPROCS workers with one sort scratch each, and returns their
// slot orders; it fills treeKeys with the sorted leading-value columns. The
// per-tree sorts are deterministic, so the worker count changes nothing.
func (ts *tstore[E]) sortTrees(n, bMax int) [][]uint32 {
	trees := make([][]uint32, bMax)
	ts.treeKeys = make([][]E, bMax)
	scratch := make([]sortScratch, par.Clamp(0, bMax))
	par.Drain(bMax, len(scratch), func(w, t int) {
		s := &scratch[w]
		if s.keys == nil {
			s.tmpOrder = make([]uint32, n)
			s.keys = make([]uint64, n)
			s.tmpKeys = make([]uint64, n)
		}
		order := make([]uint32, n)
		for i := range order {
			order[i] = uint32(i)
		}
		off := t * ts.rMax
		ts.sortByPrefix(order, s.tmpOrder, s.keys, s.tmpKeys, off, 0)
		// The sorted leading-value column (the sort scratch may have been
		// clobbered by tie-break recursion).
		col := make([]E, n)
		for i, sl := range order {
			col[i] = ts.store[int(sl)*ts.numHash+off]
		}
		trees[t], ts.treeKeys[t] = order, col
	})
	return trees
}

// sortByPrefix sorts order by the hash values store[slot*stride+off+depth ..
// off+rMax-1], least significant last (lexicographic). It radix-sorts on the
// value at the current depth and recurses into runs of equal values for the
// deeper tie-break; tiny ranges use insertion sort on the full remaining
// prefix instead. Keys are widened into the shared []uint64 scratch — the
// radix sort skips constant bytes, so narrow widths automatically take only
// the low-byte passes.
func (ts *tstore[E]) sortByPrefix(order, tmpOrder []uint32, keys, tmpKeys []uint64, off, depth int) {
	if depth >= ts.rMax || len(order) < 2 {
		return
	}
	if len(order) <= 12 {
		ts.insertionSortSuffix(order, off+depth, ts.rMax-depth)
		return
	}
	stride := ts.numHash
	col := off + depth
	for i, s := range order {
		keys[i] = uint64(ts.store[int(s)*stride+col])
	}
	radixSortPairs(keys, order, tmpKeys, tmpOrder)
	// Recurse into runs of equal keys. Reading keys[start] before any
	// recursion clobbers that subrange keeps the run detection sound: a
	// recursive call only rewrites keys strictly before the next run start.
	start := 0
	for i := 1; i <= len(order); i++ {
		if i < len(order) && keys[i] == keys[start] {
			continue
		}
		if i-start > 1 {
			ts.sortByPrefix(order[start:i], tmpOrder[start:i], keys[start:i], tmpKeys[start:i], off, depth+1)
		}
		start = i
	}
}

// insertionSortSuffix sorts order lexicographically by the r hash values at
// offset off of each slot's stored signature.
func (ts *tstore[E]) insertionSortSuffix(order []uint32, off, r int) {
	stride := ts.numHash
	for i := 1; i < len(order); i++ {
		s := order[i]
		base := int(s)*stride + off
		j := i
		for j > 0 {
			other := int(order[j-1])*stride + off
			if !lexLess(ts.store[base:base+r], ts.store[other:other+r]) {
				break
			}
			order[j] = order[j-1]
			j--
		}
		order[j] = s
	}
}

// lexLess reports whether a < b lexicographically; the slices have equal
// length.
func lexLess[E elem](a, b []E) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// compareSuffix compares the stored hash values at [base, base+r) against
// the query values q, each truncated to the store's width. Returns -1, 0,
// or 1.
func (ts *tstore[E]) compareSuffix(base, r int, q []uint64) int {
	s := ts.store[base : base+r]
	for k := 0; k < r; k++ {
		qk := E(q[k])
		if s[k] != qk {
			if s[k] < qk {
				return -1
			}
			return 1
		}
	}
	return 0
}

// query is the probe kernel: every tree among the first b that is in set is
// probed at depth r; a tree outside the set is skipped without a single load
// from its column (the kernel is bound by cache misses, not compares, so the
// skipped memory is the saving).
func (ts *tstore[E]) query(ids []uint32, trees [][]uint32, sig []uint64, b, r int, set TreeSet, fn func(id uint32) bool) {
	if set == nil {
		for t := 0; t < b; t++ {
			if !ts.queryTree(ids, trees[t], sig, t, r, fn) {
				return
			}
		}
		return
	}
	for wi, w := range set {
		base := wi * 64
		if base >= b {
			return
		}
		if b-base < 64 {
			w &= 1<<uint(b-base) - 1
		}
		for ; w != 0; w &= w - 1 {
			t := base + bits.TrailingZeros64(w)
			if !ts.queryTree(ids, trees[t], sig, t, r, fn) {
				return
			}
		}
	}
}

// queryTree probes tree t: binary-search the equal range of the query's
// (truncated) leading value on the contiguous key column, then refine by the
// remaining r-1 prefix values. It reports false once fn asked to stop.
func (ts *tstore[E]) queryTree(ids, order []uint32, sig []uint64, t, r int, fn func(id uint32) bool) bool {
	stride := ts.numHash
	off := t * ts.rMax
	q0 := E(sig[off])
	col := ts.treeKeys[t]
	n := len(ids)
	// Equal range of the leading value on the contiguous key column.
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if col[mid] < q0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	left := lo
	hi = n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if col[mid] <= q0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	right := lo
	if left == right {
		return true
	}
	if r == 1 {
		for i := left; i < right; i++ {
			if !fn(ids[order[i]]) {
				return false
			}
		}
		return true
	}
	// Refine by the remaining r-1 prefix values within the equal-q0 run.
	qs := sig[off+1 : off+r]
	lo, hi = left, right
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ts.compareSuffix(int(order[mid])*stride+off+1, r-1, qs) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < right; i++ {
		if ts.compareSuffix(int(order[i])*stride+off+1, r-1, qs) != 0 {
			break
		}
		if !fn(ids[order[i]]) {
			return false
		}
	}
	return true
}

// matchCount returns the number of slots where the stored signature in the
// given slot agrees with the (truncated) query signature — the collision
// count b-bit and plain minwise containment estimation both start from.
func (ts *tstore[E]) matchCount(slot int, sig []uint64) int {
	base := slot * ts.numHash
	m := ts.numHash
	if len(sig) < m {
		m = len(sig)
	}
	s := ts.store[base : base+m]
	eq := 0
	for k := 0; k < m; k++ {
		if s[k] == E(sig[k]) {
			eq++
		}
	}
	return eq
}

// appendWidened appends the stored signature of slot, widened to uint64, to
// dst. The values are the truncated ones — widening does not (cannot)
// recover the discarded high bits.
func (ts *tstore[E]) appendWidened(dst []uint64, slot int) []uint64 {
	base := slot * ts.numHash
	for _, v := range ts.store[base : base+ts.numHash] {
		dst = append(dst, uint64(v))
	}
	return dst
}

// leadingColumn64 returns tree t's sorted leading-value column widened to
// []uint64. For the 8-byte width this is the column itself (zero-copy view);
// narrower widths allocate a widened copy — callers are seal-time planners,
// not query paths.
func (ts *tstore[E]) leadingColumn64(t, n int) []uint64 {
	col := ts.treeKeys[t][:n]
	if c, ok := any(col).([]uint64); ok {
		return c[:len(c):len(c)]
	}
	out := make([]uint64, n)
	for i, v := range col {
		out[i] = uint64(v)
	}
	return out
}

// appendEntryLE appends slot's signature values at native width,
// little-endian, to buf (the serialization path).
func (ts *tstore[E]) appendEntryLE(buf []byte, slot int) []byte {
	w := ts.width()
	base := slot * ts.numHash
	for _, v := range ts.store[base : base+ts.numHash] {
		u := uint64(v)
		for k := 0; k < w; k++ {
			buf = append(buf, byte(u>>(8*k)))
		}
	}
	return buf
}

// writeStoreLE serializes the whole store, little-endian at native width,
// into dst (len(dst) must be exactly valueCount()*width — the segment-file
// writer pre-sizes its image).
func (ts *tstore[E]) writeStoreLE(dst []byte) {
	writeLE(dst, ts.store)
}

// writeTreeKeysLE serializes tree t's leading-value column like
// writeStoreLE.
func (ts *tstore[E]) writeTreeKeysLE(t int, dst []byte) {
	writeLE(dst, ts.treeKeys[t])
}

func writeLE[E elem](dst []byte, vals []E) {
	w := int(unsafe.Sizeof(E(0)))
	for i, v := range vals {
		u := uint64(v)
		for k := 0; k < w; k++ {
			dst[i*w+k] = byte(u >> (8 * k))
		}
	}
}

// viewFrom points the store and columns at externally owned little-endian
// byte regions (zero-copy on little-endian hosts via segfile.View). Length
// validation happened in FromViewBytes; here the bytes only need casting.
func (ts *tstore[E]) viewFrom(store []byte, keys [][]byte) {
	ts.store = viewLE[E](store)
	ts.treeKeys = make([][]E, len(keys))
	for t, kb := range keys {
		ts.treeKeys[t] = viewLE[E](kb)
	}
}
