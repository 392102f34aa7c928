package lshforest

import (
	"math/bits"
	"unsafe"

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
	width() int
	valueCount() int
	reserveValues(n int)
	appendSig(sig []uint64)
	appendZeros(n int)
	prepareTrees(bMax int)
	rebuildTree(t int, order []uint32, s *SortScratch)
	query(ids []uint32, trees [][]uint32, sig []uint64, b, r int, set TreeSet, fn func(id uint32) bool)
	matchCount(slot int, sig []uint64) int
	appendWidened(dst []uint64, slot int) []uint64
	leadingColumn64(t, n int) []uint64
	appendEntryLE(buf []byte, slot int) []byte
	decodeAppendSig(buf []byte) []byte
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

func (ts *tstore[E]) reserveValues(n int) {
	if cap(ts.store) < n {
		store := make([]E, len(ts.store), n)
		copy(store, ts.store)
		ts.store = store
	}
}

// appendSig appends sig truncated to the store's width; the caller has
// already clamped sig to at most numHash values and appends the zero padding
// separately via appendZeros.
func (ts *tstore[E]) appendSig(sig []uint64) {
	for _, v := range sig {
		ts.store = append(ts.store, E(v))
	}
}

func (ts *tstore[E]) appendZeros(n int) {
	for ; n > 0; n-- {
		ts.store = append(ts.store, 0)
	}
}

func (ts *tstore[E]) prepareTrees(bMax int) {
	if ts.treeKeys == nil {
		ts.treeKeys = make([][]E, bMax)
	}
}

// rebuildTree sorts order (pre-filled with the identity permutation by the
// caller) by tree t's hash vector and refreshes the tree's contiguous
// leading-value column.
func (ts *tstore[E]) rebuildTree(t int, order []uint32, s *SortScratch) {
	n := len(order)
	off := t * ts.rMax
	ts.sortByPrefix(order, s.tmpOrder[:n], s.keys[:n], s.tmpKeys[:n], off, 0)
	// Rebuild the contiguous leading-value column in sorted order (the
	// sort scratch may have been clobbered by tie-break recursion).
	col := ts.treeKeys[t]
	if cap(col) < n {
		col = make([]E, n)
	}
	col = col[:n]
	for i, sl := range order {
		col[i] = ts.store[int(sl)*ts.numHash+off]
	}
	ts.treeKeys[t] = col
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

// decodeAppendSig appends one signature (numHash values at native width,
// little-endian) read from buf to the store and returns the remaining bytes.
// The caller has verified buf holds at least numHash*width bytes.
func (ts *tstore[E]) decodeAppendSig(buf []byte) []byte {
	w := ts.width()
	for i := 0; i < ts.numHash; i++ {
		var u uint64
		for k := w - 1; k >= 0; k-- {
			u = u<<8 | uint64(buf[i*w+k])
		}
		ts.store = append(ts.store, E(u))
	}
	return buf[ts.numHash*w:]
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
