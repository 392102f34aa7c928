package lshforest

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"unsafe"

	"lshensemble/internal/minhash"
	"lshensemble/internal/par"
	"lshensemble/internal/segfile"
)

// This file is the element-width generalization of the forest's flat
// storage: the contiguous signature store is held at a configurable element
// width E (2, 4 or 8 bytes per hash value) and the per-tree sorted
// leading-value columns at a lead width L of at least 4 bytes, behind the
// sigstore interface, with one monomorphized implementation per shape
// (tstore[E, L]: (uint16, uint32), (uint32, uint32), (uint64, uint64)).
// Narrow widths are the b-bit minwise backends (Li & König): a stored value
// is the low 8·width bits of the 64-bit minhash value, and a query-side value
// is truncated to the same width on the fly at every compare site — the Go
// conversion E(v) keeps exactly the low bits, so truncation costs nothing and
// query signatures stay full-width []uint64 throughout the API.
//
// A tree's leading value is kept at L: a 16-bit lead would let an unrelated
// entry into a depth-1 probe with probability 2⁻¹⁶, a 32-bit one with 2⁻³².
// When L is wider than E, each entry's row in the store ends in one extra
// value per tree, the bits of its lead above E's (the lead's high half), so
// the row holds the lead at L without a second copy of its low half; the
// sorted columns, their fences and the probe's lead search run at L, the
// refine and the match count on the E slots.
//
// Truncation to the low b bits is idempotent (truncating an
// already-truncated value is the identity), so signatures read back from a
// narrow store — the E slots widened, the tree leads at L — can be re-added to
// another store of the same shape — the merge path of internal/live relies on
// this.

// LeadWidth returns the bytes per leading value of a store of width bytes per
// value: the width, and never fewer than 4.
func LeadWidth(width int) int { return max(width, 4) }

// RowLen returns the stored values per entry of a store of width bytes per
// value over numHash values in trees of rMax: numHash, plus one lead high half
// per tree when the leads are wider than the store.
func RowLen(numHash, rMax, width int) int {
	if LeadWidth(width) > width {
		return numHash + numHash/rMax
	}
	return numHash
}

// AppendRow appends the stored row of sig (numHash = len(sig) values, at
// least one per tree) at width bytes per value, little-endian, to buf: every
// value truncated to the width, then, when the leads are wider than the store,
// the high half of each tree's lead. It is the bytes a forest of that width
// stores for sig (AppendBinary's entries, a segment file's store).
func AppendRow(buf []byte, sig []uint64, rMax, width int) []byte {
	put := func(v uint64) {
		for k := 0; k < width; k++ {
			buf = append(buf, byte(v>>(8*k)))
		}
	}
	for _, v := range sig {
		put(v)
	}
	for t := 0; t < RowLen(len(sig), rMax, width)-len(sig); t++ {
		put(sig[t*rMax] >> (8 * width))
	}
	return buf
}

// ReadRow is AppendRow's inverse: it decodes the row at the front of b into
// sig's len(sig) values, every tree's lead with its high half folded back in.
// b must hold RowLen(len(sig), rMax, width)·width bytes.
func ReadRow(sig []uint64, b []byte, rMax, width int) {
	get := func(i int) uint64 {
		switch width {
		case 2:
			return uint64(binary.LittleEndian.Uint16(b[2*i:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return binary.LittleEndian.Uint64(b[8*i:])
	}
	for j := range sig {
		sig[j] = get(j)
	}
	for t := 0; t < RowLen(len(sig), rMax, width)-len(sig); t++ {
		sig[t*rMax] |= get(len(sig)+t) << (8 * width)
	}
}

// sigstore is the width-erased interface the Forest wrapper dispatches
// through — one virtual call per operation, with the loops inside
// monomorphized per shape.
type sigstore interface {
	valueCount() int
	fill(n, need int, sig func(i int) []uint64)
	sortTrees(n, bMax int) [][]uint32
	matchCount(slot int, sig []uint64) int
	appendWidened(dst []uint64, slot int) []uint64
	leadingColumn64(t, n int) []uint64
	appendEntryLE(buf []byte, slot int) []byte
	writeStoreLE(dst []byte)
	writeTreeKeysLE(t int, dst []byte)
	viewFrom(store []byte, keys [][]byte)
}

// tstore is the width-typed half of a Forest: the contiguous signature store
// (row values per entry: numHash slots, then the trees' lead high halves when
// L is wider than E), the per-tree sorted leading-value columns and their
// fences.
type tstore[E, L segfile.Elem] struct {
	numHash, rMax, row int
	store              []E
	treeKeys           [][]L

	// fences holds, per tree, the first value of each fenceLine bytes of its
	// leading column. Derived, never persisted: the tree sort fills them, a
	// view its first probe, so opening a mapped segment reads no column.
	fences    [][]L
	fenceOnce sync.Once
}

// fenceLine is the column stretch, in bytes, one fence value stands for.
const fenceLine = 64

// fillFences derives every tree's fence from its column (once: fenceOnce).
func (ts *tstore[E, L]) fillFences() {
	s := fenceLine / int(unsafe.Sizeof(L(0)))
	ts.fences = make([][]L, len(ts.treeKeys))
	for t, col := range ts.treeKeys {
		f := make([]L, (len(col)+s-1)/s)
		for j := range f {
			f[j] = col[j*s]
		}
		ts.fences[t] = f
	}
}

func newStore(widthBytes, numHash, rMax int) sigstore {
	row := RowLen(numHash, rMax, widthBytes)
	switch widthBytes {
	case 2:
		return &tstore[uint16, uint32]{numHash: numHash, rMax: rMax, row: row}
	case 4:
		return &tstore[uint32, uint32]{numHash: numHash, rMax: rMax, row: row}
	case 8:
		return &tstore[uint64, uint64]{numHash: numHash, rMax: rMax, row: row}
	default:
		return nil
	}
}

func (ts *tstore[E, L]) width() int      { return int(unsafe.Sizeof(E(0))) }
func (ts *tstore[E, L]) valueCount() int { return len(ts.store) }

// lead returns tree t's leading value of slot at the lead width: its E slot,
// and its high half from the end of the row when L is wider.
func (ts *tstore[E, L]) lead(slot, t int) L {
	row := ts.store[slot*ts.row : (slot+1)*ts.row]
	v := L(row[t*ts.rMax])
	if ts.row > ts.numHash {
		v |= L(row[ts.numHash+t]) << (8 * unsafe.Sizeof(E(0)))
	}
	return v
}

// fill sizes the store for n signatures once and copies sig(i) into slot i,
// cut to numHash values (the zeroed store pads a shorter one) and truncated
// to the store's width, each tree's lead high half after them when the leads
// are wider. Each signature must hold at least need values.
func (ts *tstore[E, L]) fill(n, need int, sig func(i int) []uint64) {
	ts.store = make([]E, n*ts.row)
	for i := 0; i < n; i++ {
		s := sig(i)
		if len(s) < need {
			panic(fmt.Sprintf("lshforest: signature length %d < required %d", len(s), need))
		}
		dst := ts.store[i*ts.row : (i+1)*ts.row]
		for k, v := range s[:min(len(s), ts.numHash)] {
			dst[k] = E(v)
		}
		for t := range dst[ts.numHash:] {
			dst[ts.numHash+t] = E(s[t*ts.rMax] >> (8 * unsafe.Sizeof(E(0))))
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
// slot orders; it fills treeKeys with the sorted leading-value columns, and
// their fences. The sorts are deterministic: the worker count changes nothing.
func (ts *tstore[E, L]) sortTrees(n, bMax int) [][]uint32 {
	trees := make([][]uint32, bMax)
	ts.treeKeys = make([][]L, bMax)
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
		ts.sortByPrefix(order, s.tmpOrder, s.keys, s.tmpKeys, t, 0)
		// The sorted leading-value column (the sort scratch may have been
		// clobbered by tie-break recursion).
		col := make([]L, n)
		for i, sl := range order {
			col[i] = ts.lead(int(sl), t)
		}
		trees[t], ts.treeKeys[t] = order, col
	})
	ts.fenceOnce.Do(ts.fillFences)
	return trees
}

// key returns slot's value of tree t at depth: the lead, at L, at depth 0,
// and the stored E value below it.
func (ts *tstore[E, L]) key(slot, t, depth int) uint64 {
	if depth == 0 {
		return uint64(ts.lead(slot, t))
	}
	return uint64(ts.store[slot*ts.row+t*ts.rMax+depth])
}

// sortByPrefix sorts order by tree t's values at depth .. rMax-1 (key), least
// significant last (lexicographic). It radix-sorts on the value at the
// current depth and recurses into runs of equal values for the deeper
// tie-break; tiny ranges use insertion sort on the full remaining prefix
// instead. Keys are widened into the shared []uint64 scratch — the radix sort
// skips constant bytes, so narrow widths automatically take only the low-byte
// passes.
func (ts *tstore[E, L]) sortByPrefix(order, tmpOrder []uint32, keys, tmpKeys []uint64, t, depth int) {
	if depth >= ts.rMax || len(order) < 2 {
		return
	}
	if len(order) <= 12 {
		ts.insertionSortSuffix(order, t, depth)
		return
	}
	for i, s := range order {
		keys[i] = ts.key(int(s), t, depth)
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
			ts.sortByPrefix(order[start:i], tmpOrder[start:i], keys[start:i], tmpKeys[start:i], t, depth+1)
		}
		start = i
	}
}

// insertionSortSuffix sorts order lexicographically by tree t's values at
// depth .. rMax-1 of each slot.
func (ts *tstore[E, L]) insertionSortSuffix(order []uint32, t, depth int) {
	less := func(a, b uint32) bool {
		for d := depth; d < ts.rMax; d++ {
			if x, y := ts.key(int(a), t, d), ts.key(int(b), t, d); x != y {
				return x < y
			}
		}
		return false
	}
	for i := 1; i < len(order); i++ {
		s := order[i]
		j := i
		for j > 0 && less(s, order[j-1]) {
			order[j] = order[j-1]
			j--
		}
		order[j] = s
	}
}

// compareSuffix compares the stored hash values at [base, base+r) against
// the query values q, each truncated to the store's width. Returns -1, 0,
// or 1.
func (ts *tstore[E, L]) compareSuffix(base, r int, q []uint64) int {
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

// probe is the probe kernel behind Probe; every job's forest is a
// *tstore[E, L] (Probe checked the widths). Each tree among a job's first B
// that is in its set is one column; a tree outside the set is skipped without
// a single load from its column (the kernel is bound by cache misses, not
// compares, so the skipped memory is the saving). The columns of all jobs, in job order and
// then tree order, fill a stage buffer of 64 that probeChunk takes a full
// buffer at a time, so one chunk holds the trees of several forests.
func probe[E, L segfile.Elem](jobs []Job, sig []uint64, fn func(id uint32) bool) {
	var buf [64]column[E, L]
	k := 0
	for ji := range jobs {
		j := &jobs[ji]
		f := j.Forest
		if len(f.ids) == 0 {
			continue
		}
		ts := f.st.(*tstore[E, L])
		ts.fenceOnce.Do(ts.fillFences)
		for base := 0; base < j.B; base += 64 {
			w := ^uint64(0)
			if j.Trees != nil {
				w = j.Trees[base>>6]
			}
			if j.B-base < 64 {
				w &= 1<<uint(j.B-base) - 1
			}
			for ; w != 0; w &= w - 1 {
				t := base + bits.TrailingZeros64(w)
				buf[k] = column[E, L]{ts: ts, f: f, fence: ts.fences[t], hi: len(ts.fences[t]), q0: L(sig[t*ts.rMax]), t: int32(t), r: int32(j.R)}
				if k++; k == len(buf) {
					if !probeChunk(buf[:], sig, fn) {
						return
					}
					k = 0
				}
			}
		}
	}
	probeChunk(buf[:k], sig, fn)
}

// column is one (forest, tree) column's state through probeChunk: during the
// fence search, lo is the search's base and hi the length left to halve; then
// the column stretch [lo, hi) the fence names; then the run [lo, hi) of the
// query's leading value q0, at the lead width (empty: no match). v is what
// one stage loaded for the next, o the run's first slot, r the job's depth.
type column[E, L segfile.Elem] struct {
	ts     *tstore[E, L]
	f      *Forest
	fence  []L
	lo, hi int
	v      uint64
	q0     L
	t, r   int32
	o      uint32
}

// probeChunk probes every column of cs and reports false once fn asked to
// stop. One column's probe is a chain of dependent cache misses, so the
// columns go through it stage by stage, each stage one independent load per
// column and all of them in flight at once: (1) the fence search, one level of
// every column's search per pass, each step branch-free, which names the one
// stretch (s·(j-1), s·j] of the column that can hold the first entry ≥ q0
// (fence[j-1] < q0 ≤ fence[j]; the fences stay in L2 where the columns do
// not); (2) the stretch's first value, which brings in the column's line;
// (3) a branch-free count of the stretch's values below q0 and the gallop
// past the run's end (+1, +2, +4, …); (4) the run's first order entry, then
// its store row (r > 1) or its id (r = 1), which emitRun starts from; (5)
// the refine and the emit, in column order (emitRun).
func probeChunk[E, L segfile.Elem](cs []column[E, L], sig []uint64, fn func(id uint32) bool) bool {
	// Every step halves the length left, so the longest fence sets the number
	// of passes; a search already down to one entry steps by zero.
	m := 0
	for i := range cs {
		m = max(m, cs[i].hi)
	}
	for ; m > 1; m -= m >> 1 {
		for i := range cs {
			c := &cs[i]
			lo, half := c.lo, c.hi>>1
			if c.fence[lo+half] < c.q0 {
				lo += half
			}
			c.lo, c.hi = lo, c.hi-half
		}
	}
	s := fenceLine / int(unsafe.Sizeof(L(0)))
	for i := range cs {
		c := &cs[i]
		j := c.lo + below(c.fence[c.lo], c.q0)
		c.lo, c.hi = max(j*s-s+1, 0), min(j*s, len(c.f.ids))
		if c.lo < c.hi {
			c.v = uint64(c.ts.treeKeys[c.t][c.lo])
		}
	}
	for i := range cs {
		c := &cs[i]
		q0, col, n := c.q0, c.ts.treeKeys[c.t], len(c.f.ids)
		left := c.lo
		for _, x := range col[c.lo:c.hi] {
			left += below(x, q0)
		}
		if left == n || col[left] != q0 {
			c.lo, c.hi = left, left
			continue
		}
		lo, hi := left+1, left+1
		for step := 1; hi < n && col[hi] == q0; step *= 2 {
			lo, hi = hi+1, hi+step
		}
		c.lo, c.hi = left, search(col, lo, min(hi, n), q0, true)
	}
	for i := range cs {
		if c := &cs[i]; c.lo < c.hi {
			c.o = c.f.trees[c.t][c.lo]
		}
	}
	for i := range cs {
		if c := &cs[i]; c.lo < c.hi && c.r == 1 {
			c.v = uint64(c.f.ids[c.o])
		} else if c.lo < c.hi {
			c.v = uint64(c.ts.store[int(c.o)*c.ts.row+int(c.t)*c.ts.rMax+1])
		}
	}
	for i := range cs {
		if c := &cs[i]; c.lo < c.hi && !c.emitRun(sig, fn) {
			return false
		}
	}
	return true
}

// below is 1 if a < b and 0 if not, the borrow of a - b: a count, not a
// branch.
func below[E segfile.Elem](a, b E) int {
	_, borrow := bits.Sub64(uint64(a), uint64(b), 0)
	return int(borrow)
}

// search returns the first i in [lo, hi) with s[i] ≥ q (s[i] > q when
// after), or hi; s is sorted.
func search[E segfile.Elem](s []E, lo, hi int, q E, after bool) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < q || after && s[mid] == q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// emitRun refines the non-empty run c by the remaining r-1 prefix values and
// hands fn the ids that match, in the tree's order, from what stage 4 left in
// c.v: the run's first id (r = 1), or its first slot's next prefix value. It
// reports false once fn asked to stop.
func (c *column[E, L]) emitRun(sig []uint64, fn func(id uint32) bool) bool {
	ids, order := c.f.ids, c.f.trees[c.t]
	if c.r == 1 {
		if !fn(uint32(c.v)) {
			return false
		}
		for i := c.lo + 1; i < c.hi; i++ {
			if !fn(ids[order[i]]) {
				return false
			}
		}
		return true
	}
	// The run is sorted by the remaining values, so its first slot's say
	// whether the matches start there, after it, or nowhere.
	ts, r := c.ts, int(c.r)
	stride, off := ts.row, int(c.t)*ts.rMax
	qs := sig[off+1 : off+r]
	if E(c.v) > E(qs[0]) {
		return true
	}
	lo, hi := c.lo, c.hi
	if E(c.v) < E(qs[0]) || ts.compareSuffix(int(c.o)*stride+off+1, r-1, qs) < 0 {
		for lo++; lo < hi; {
			mid := int(uint(lo+hi) >> 1)
			if ts.compareSuffix(int(order[mid])*stride+off+1, r-1, qs) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	for i := lo; i < c.hi && ts.compareSuffix(int(order[i])*stride+off+1, r-1, qs) == 0; i++ {
		if !fn(ids[order[i]]) {
			return false
		}
	}
	return true
}

// matchCount returns the number of slots where the stored signature in the
// given slot agrees with the (truncated) query signature — the collision
// count b-bit and plain minwise containment estimation both start from — with
// the store width's vector match (minhash.Matches). A lead counts at the store
// width, like every other slot.
func (ts *tstore[E, L]) matchCount(slot int, sig []uint64) int {
	base := slot * ts.row
	return minhash.Matches(ts.store[base:base+min(ts.numHash, len(sig))], sig)
}

// appendWidened appends the stored signature of slot, widened to uint64, to
// dst: the stored values, every tree's lead at the lead width. Widening does
// not (cannot) recover the discarded high bits.
func (ts *tstore[E, L]) appendWidened(dst []uint64, slot int) []uint64 {
	base, start := slot*ts.row, len(dst)
	for _, v := range ts.store[base : base+ts.numHash] {
		dst = append(dst, uint64(v))
	}
	for t := 0; t < ts.row-ts.numHash; t++ {
		dst[start+t*ts.rMax] = uint64(ts.lead(slot, t))
	}
	return dst
}

// leadingColumn64 returns tree t's sorted leading-value column widened to
// []uint64. For the 8-byte width this is the column itself (zero-copy view);
// narrower widths allocate a widened copy — callers are seal-time planners,
// not query paths.
func (ts *tstore[E, L]) leadingColumn64(t, n int) []uint64 {
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

// appendEntryLE appends slot's stored row at native width, little-endian, to
// buf (the serialization path; AppendRow of the widened signature).
func (ts *tstore[E, L]) appendEntryLE(buf []byte, slot int) []byte {
	w := ts.width()
	for _, v := range ts.store[slot*ts.row : (slot+1)*ts.row] {
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
func (ts *tstore[E, L]) writeStoreLE(dst []byte) {
	segfile.Put(dst, ts.store)
}

// writeTreeKeysLE serializes tree t's leading-value column, little-endian at
// the lead width, into dst.
func (ts *tstore[E, L]) writeTreeKeysLE(t int, dst []byte) {
	segfile.Put(dst, ts.treeKeys[t])
}

// viewFrom points the store and columns at externally owned little-endian
// byte regions (zero-copy on little-endian hosts via segfile.View). Length
// validation happened in FromViewBytes; here the bytes only need casting.
func (ts *tstore[E, L]) viewFrom(store []byte, keys [][]byte) {
	ts.store = segfile.View[E](store)
	ts.treeKeys = make([][]L, len(keys))
	for t, kb := range keys {
		ts.treeKeys[t] = segfile.View[L](kb)
	}
}
