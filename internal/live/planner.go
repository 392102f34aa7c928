package live

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"lshensemble/internal/bloom"
	"lshensemble/internal/core"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/minhash"
	"lshensemble/internal/tune"
)

// This file is the segment-aware query planner. A live index accumulates
// sealed segments, and the naive fan-out probes every one of them for every
// query even though most segments cannot contain a candidate. The planner
// attaches cheap immutable metadata to each segment at seal/merge time and
// uses it to rule segments out before their forests are touched:
//
//   - size-range pruning: containment is at most x/q, so a segment whose
//     largest partition bound u has u/q < t* holds no candidate — one compare
//     against segMeta.maxBound (rangePruned), made before anything else is
//     read;
//   - leading-value pruning, per column: a forest probe of tree t at any
//     depth r ≥ 1 matches an entry only if the query's leading hash value
//     sig[t·rMax] occurs exactly in that tree's leading column, so a query
//     asks two questions before a probe: which trees, then which partitions.
//     A Bloom filter over every leading column answers the first, tree by
//     tree (leadTrees): the empty set rules the segment out, and a negative
//     costs ~1.3 cache lines. The partition-sliced filter (partFilter) answers
//     the second for each tree left, and partTrees scatters the answers into
//     one tree set per partition: the probe enters only those columns — about
//     a fifth of what the tree set alone lets through — and no partition whose
//     set is empty. Neither filter has false negatives. The unsealed buffer
//     asks its own Bloom the first question and compares only the bands in
//     the set (appendBufferMatches);
//   - top-k early termination: the containment estimate is capped by the
//     candidate's size, so once k results beat the cap of every remaining
//     (size-descending) segment, those segments cannot contribute.
//
// Every prune fires only when the segment — or the column — provably
// contributes nothing, so planned queries return byte-identical results to
// the full fan-out, which Options.DisablePruning keeps as the reference (the
// package equivalence tests assert this under churn).
//
// A segment neither check rules out is planned where it is probed
// (probeSegment): the (b, r) of a partition comes from the one process-wide
// tune.Table of the index's banding grid — the same table every sealed
// segment, the buffer scan and every other index over that grid read, so a
// segment created by a seal, a merge or a boot plans as warm as the segments it
// replaces — and a table hit is two atomic loads, ~50 ns a partition, written
// into pooled scratch. Plans are not memoized: a memo bought ~1 µs of a 36 µs
// query (ROADMAP ledger), less than the lock and the allocation it puts on the
// read path for every (querySize, tStar) outside its working set.
//
// One cache remains, lock-free on the read path: the result cache memoizes
// exact query results — threshold queries' key lists and top-k rankings alike
// — keyed to the snapshot's gen (bumped on every publish — any mutation
// invalidates all cached results).

// Bloom operating points (see bloom.New). Keys use ~1% false positives:
// a false positive merely costs one unnecessary tombstone sweep. Leading
// values use ~0.1%: the collision pre-test is probed once per tree per
// query, and a false positive costs that tree's surviving columns a probe.
const (
	keysBloomBits = 10
	keysBloomK    = 7

	leadsBloomBits = 14
	leadsBloomK    = 10
)

// segMeta is the planner's immutable per-segment metadata, built once when
// the segment is sealed, merged or loaded, and shared by every snapshot
// that references the segment.
type segMeta struct {
	minSize int // smallest entry cardinality (reporting)
	maxSize int // largest entry cardinality (reporting)

	// maxBound is the largest upper bound among the segment's non-empty
	// partitions — the size the threshold conversion (Eq. 7) actually uses.
	// rangePruned compares against it, and no candidate's containment
	// estimate can exceed (maxBound/q + 1)/2.
	maxBound int

	keys  *bloom.Filter // every entry key (tombstone GC skip)
	leads *bloom.Filter // every tree's leading hash column (collision pre-test)

	// parts is in memory only: fillLeads builds it with leads where the columns
	// are in memory (seal, merge, Build, a heap load) and on the first probe of
	// a mapped segment, whose boot must not fault the columns in.
	parts     partFilter
	partsOnce sync.Once
}

// rangePruned reports whether no entry of size ≤ bound can reach containment
// tStar (clamped) of a query of querySize: containment is at most x/q ≤
// bound/q. With a segment's maxBound it is true exactly when PlanPartitions
// skips every partition, which makes the same compare with each partition's
// own bound; with the buffer's bufMax it skips the scan.
func rangePruned(bound, querySize int, tStar float64) bool {
	return tStar > 0 && float64(bound)/float64(querySize) < tStar
}

// partFilter is the partition-sliced lead filter of one segment: one uint16
// per slot, bit p mod 16 set for every leading value of partition p hashing
// there, each value hashed to two slots whose AND answers "which partitions
// may hold this value" with no false negatives (partitions beyond 16 fold onto
// the same bits, which only adds partitions to an answer). A slot per (entry,
// tree) pair rounded up to a power of two — 64 B per domain at 32 trees —
// keeps a wrong partition in an answer 1–2 % of the time. The lead Bloom's
// 0.1 % would take five slots per value and twice the memory, which is why
// this filter is asked second, and only for the trees the Bloom lets through.
type partFilter []uint16

// leadCount is the number of leading values idx holds, one per entry and tree;
// partSlots rounds it up to the sliced filter's power-of-two slot count.
func leadCount(idx *core.Index) int { return idx.Len() * (idx.Options().NumHash / idx.Options().RMax) }
func partSlots(leads int) int       { return 1 << bits.Len(uint(max(leads, 1)-1)) }

func (f partFilter) slots(v uint64) (uint64, uint64) {
	h, m := mixHash(v), uint64(len(f)-1)
	return h & m, bits.RotateLeft64(h, 32) & m
}

func (f partFilter) add(p int, v uint64) {
	i, j := f.slots(v)
	f[i] |= 1 << (p & 15)
	f[j] |= 1 << (p & 15)
}

// partitions returns which partitions may hold v: partition p is bit p mod 16.
func (f partFilter) partitions(v uint64) uint16 {
	i, j := f.slots(v)
	return f[i] & f[j]
}

// fillLeads builds the sliced filter — and fills leads, when given — in one
// walk over the (partition, tree) leading columns of idx, once per segment.
func (m *segMeta) fillLeads(idx *core.Index, leads *bloom.Filter) {
	m.partsOnce.Do(func() {
		f := make(partFilter, partSlots(leadCount(idx)))
		idx.EachTreeLeading(func(p, _ int, col []uint64) {
			for _, v := range col {
				if leads != nil {
					leads.AddHash(v)
				}
				f.add(p, v)
			}
		})
		m.parts = f
	})
}

// buildSegMeta derives the planner metadata from a frozen core index. It is
// a pure function of the index, so rebuilding it (e.g. when loading a v1
// snapshot that predates the metadata wire format) reproduces exactly what
// seal time would have produced.
func buildSegMeta(idx *core.Index) *segMeta {
	m := &segMeta{}
	n := idx.Len()
	if n == 0 {
		return m
	}
	m.setSizes(idx)
	m.keys = bloom.New(n, keysBloomBits, keysBloomK)
	for id := 0; id < n; id++ {
		m.keys.AddString(idx.Key(uint32(id)))
	}
	m.leads = bloom.New(leadCount(idx), leadsBloomBits, leadsBloomK)
	m.fillLeads(idx, m.leads)
	return m
}

// setSizes derives the three size words — minSize, maxSize and maxBound —
// from a non-empty idx. They are a function of the index, so a load derives
// them too and refuses a stored block that says otherwise (decodeSegMeta).
func (m *segMeta) setSizes(idx *core.Index) {
	m.minSize, m.maxSize, m.maxBound = idx.Size(0), idx.Size(0), 0
	for id := 1; id < idx.Len(); id++ {
		s := idx.Size(uint32(id))
		m.minSize, m.maxSize = min(m.minSize, s), max(m.maxSize, s)
	}
	for _, p := range idx.PartitionBounds() {
		if p.Count > 0 {
			m.maxBound = max(m.maxBound, p.Upper)
		}
	}
}

// bloomBytes reports the filter footprint of idx's metadata (for Stats). The
// sliced filter is sized, not read: a mapped segment builds it on first probe.
func (m *segMeta) bloomBytes(idx *core.Index) int {
	if m.leads == nil {
		return 0
	}
	return m.keys.SizeBytes() + m.leads.SizeBytes() + 2*partSlots(leadCount(idx))
}

// leadFilter is the one question the planner asks of a leading-value Bloom
// filter — the sealed segments' *bloom.Filter and the buffer's *bloom.Atomic.
type leadFilter interface{ MayContainHash(h uint64) bool }

// leadTrees clears set and inserts every tree t whose leading query value
// sig[t·rMax] the filter may contain, returning how many it inserted. Sound
// with zero false negatives: a probe of tree t at any depth r ≥ 1 — by a
// forest or by the buffer's band compare — requires an exact match on that
// value, and the filter holds every one of them, so a tree left out cannot
// match and an empty set rules the whole segment (or buffer) out. A filter
// false positive only adds a tree that then probes to nothing. The filter
// stores the values as the sealed forest stores them — truncated to the
// sketch backend's width — so the query side masks identically (identity
// mask under Minwise64). sig is clamped to NumHash; set has
// lshforest.TreeSetWords(NumHash/rMax) words.
func leadTrees(set lshforest.TreeSet, f leadFilter, sig minhash.Signature, rMax int, mask uint64) int {
	clear(set)
	n := 0
	for t, off := 0, 0; off+rMax <= len(sig); t, off = t+1, off+rMax {
		if f.MayContainHash(sig[off] & mask) {
			set.Add(t)
			n++
		}
	}
	return n
}

// trees asks the segment's lead Bloom the first question: it leaves in
// s.trees the trees sig can match in and returns how many there are — none,
// as in an empty segment, which has no filters, rules the segment out.
func (m *segMeta) trees(s *queryScratch, sig minhash.Signature, rMax int, mask uint64) int {
	if m.leads == nil {
		return 0
	}
	return leadTrees(s.trees, m.leads, sig, rMax, mask)
}

// partTrees asks the sliced filter the second question, for the trees the
// first left in s.trees: each is scattered into one tree set per partition of
// idx, tree t entering partition p's set when the filter may hold sig[t·rMax]
// in p and the plan probes t there (t < pp[p].B; a nil plan is a top-k ladder,
// whose rungs plan for themselves). Sound like leadTrees: a column left out
// cannot match. It returns the sets, lent by s, and how many columns they hold.
func (m *segMeta) partTrees(s *queryScratch, idx *core.Index, sig minhash.Signature, rMax int, mask uint64, pp []tune.Params) (sets []lshforest.TreeSet, cols int) {
	m.fillLeads(idx, nil)
	n := idx.NumPartitions()
	sets = s.partSets(n)
	for wi, w := range s.trees {
		for ; w != 0; w &= w - 1 {
			t := wi*64 + bits.TrailingZeros64(w)
			for ps := m.parts.partitions(sig[t*rMax] & mask); ps != 0; ps &= ps - 1 {
				for p := bits.TrailingZeros16(ps); p < n; p += 16 {
					if pp == nil || t < pp[p].B {
						sets[p].Add(t)
						cols++
					}
				}
			}
		}
	}
	return sets, cols
}

// containmentBound is the largest containment estimate any entry of size
// ≤ xMax can reach against a query of size q: Containment = (x/q+1)·j/(1+j)
// with j ≤ 1, so the cap is (xMax/q+1)/2, clamped like the estimate itself.
func containmentBound(xMax int, q float64) float64 {
	b := (float64(xMax)/q + 1) / 2
	if b > 1 {
		return 1
	}
	return b
}

// topkSegOrder returns segment indices sorted by maxBound descending —
// the visit order that lets top-k terminate as early as possible. Ties
// break by index so the order is deterministic.
func topkSegOrder(segs []*segment) []int {
	if len(segs) == 0 {
		return nil
	}
	order := make([]int, len(segs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return segs[order[i]].meta.maxBound > segs[order[j]].meta.maxBound
	})
	return order
}

// ---- result cache ----

// resultEntry is one cached exact query result. Everything in it is
// immutable after the entry is published except stamp, the approximate-LRU
// clock tick of its last use.
type resultEntry struct {
	gen    uint64            // snapshot generation the result was computed on
	hash   uint64            // queryHash of (sig, size, tBits)
	size   int               // exact query size
	tBits  uint64            // raw bits of the clamped threshold, or topKBits(k)
	sig    minhash.Signature // private copy of the query signature
	keys   []string          // a threshold query's result, in fan-out order
	ranked []core.TopKResult // a top-k query's result, best first

	stamp atomic.Uint64
}

// topKBits is the third key word of a ranked query, in the place a threshold
// query keeps its threshold bits. The sign bit keeps the two apart: no
// clamped threshold is negative.
func topKBits(k int) uint64 { return 1<<63 | uint64(k) }

// rcWays is the set associativity of the result cache: a query hashes to
// one set of rcWays slots, probed linearly. Four ways keeps the probe cost
// trivial while making it unlikely that two hot queries evict each other.
const rcWays = 4

// defaultResultCacheSize is the entry count when Options.ResultCacheSize
// is zero. At ~1–2 KiB per cached result this stays in the low MiB.
const defaultResultCacheSize = 1024

// newResultCache sizes the slot array: entries rounds up so the set count
// is a power of two (index = hash & mask).
func newResultCache(entries int) ([]atomic.Pointer[resultEntry], uint64) {
	sets := 1
	for sets*rcWays < entries {
		sets <<= 1
	}
	return make([]atomic.Pointer[resultEntry], sets*rcWays), uint64(sets - 1)
}

// mixHash is the splitmix64 finalizer (same as the Bloom filter's mixer):
// one round decorrelates the set index from structured FNV output.
func mixHash(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// queryHash fingerprints a query for the result cache: FNV-1a over the
// signature words, the size and the threshold bits, finalized with one mix
// round.
func queryHash(sig minhash.Signature, querySize int, tBits uint64) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range sig {
		h = (h ^ v) * prime64
	}
	h = (h ^ uint64(querySize)) * prime64
	h = (h ^ tBits) * prime64
	return mixHash(h)
}

// cached probes the query's set of the result cache for a fresh exact match
// on the call's snapshot and counts the hit or miss; it also returns the
// query's hash, which store takes. A hit requires the entry's generation to
// equal the snapshot's — any Add, Delete, seal or merge publishes a new
// generation, so a stale result can never be served. The full signature
// compare makes hash collisions harmless. With the cache disabled every
// lookup is a miss that nothing counts.
func (c *call) cached(sig minhash.Signature, querySize int, tBits uint64) (*resultEntry, uint64) {
	x := c.x
	if x.rc == nil {
		return nil, 0
	}
	h := queryHash(sig, querySize, tBits)
	base := int(h&x.rcMask) * rcWays
	for i := 0; i < rcWays; i++ {
		e := x.rc[base+i].Load()
		if e == nil || e.gen != c.sn.gen || e.hash != h || e.size != querySize || e.tBits != tBits || !slices.Equal(e.sig, sig) {
			continue
		}
		e.stamp.Store(x.rcClock.Add(1))
		c.tally[cResHits]++
		return e, h
	}
	c.tally[cResMisses]++
	return nil, h
}

// store publishes a complete answer computed on the call's snapshot into the
// query's set, evicting (in order of preference) an empty slot, a
// stale-generation entry, or the least recently stamped one. Races between
// concurrent inserts are benign: slots are single atomic pointers, so a lost
// insert just misses next time. A canceled fan-out collected only a prefix of
// its answer: callers must not store it, or the truncation would be served to
// later, uncanceled queries.
func (c *call) store(sig minhash.Signature, querySize int, tBits, h uint64, keys []string, ranked []core.TopKResult) {
	x, sn := c.x, c.sn
	if x.rc == nil {
		return
	}
	base := int(h&x.rcMask) * rcWays
	victim := 0
	var minStamp uint64 = math.MaxUint64
	for i := 0; i < rcWays; i++ {
		e := x.rc[base+i].Load()
		if e == nil || e.gen != sn.gen {
			victim = i
			break
		}
		if s := e.stamp.Load(); s < minStamp {
			minStamp, victim = s, i
		}
	}
	e := &resultEntry{
		gen:    sn.gen,
		hash:   h,
		size:   querySize,
		tBits:  tBits,
		sig:    append(minhash.Signature(nil), sig...),
		keys:   append([]string(nil), keys...),
		ranked: append([]core.TopKResult(nil), ranked...),
	}
	e.stamp.Store(x.rcClock.Add(1))
	x.rc[base+victim].Store(e)
}
