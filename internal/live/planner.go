package live

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"lshensemble/internal/bloom"
	"lshensemble/internal/core"
	"lshensemble/internal/domain"
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
//     asks two questions before a probe: can any tree match, then which
//     partitions of which trees. A Bloom filter over every leading column
//     answers the first (trees, the gate), asked in tree order up to the
//     first positive: a segment pays at most one (k = 10 cache lines; a
//     negative costs ~1.3), and none rules it out. The partition-sliced filter
//     (partFilter) answers the second for every tree left, all answers first
//     so that their misses overlap, and partTrees scatters them into one tree
//     set per partition: the probe enters only those columns and no partition
//     whose set is empty. Neither filter has false negatives. The unsealed
//     buffer asks the first question, band by band (leadTrees), of a
//     bloom.Filter of its own, which Adds fill while queries read it, and
//     reads the band-major lead columns of only the bands in the set
//     (appendBufferMatches);
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
// values use ~0.1%: the gate asks up to one value per tree, and a false
// positive on all of them costs the segment a plan and the sliced filter.
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
// tree) pair rounded up to a power of two — 64–128 B per domain at 32 trees;
// lib_query's settled 36 864-entry segment holds 2²¹ slots for 1 179 648
// leads, 114 B per domain — keeps a wrong partition in an answer 1–2 % of
// the time. The lead Bloom's 0.1 % would take five slots per value and twice
// the memory, which is why this filter is asked second, only of a segment
// the Bloom lets through.
type partFilter []uint16

// leadCount is the number of leading values idx holds, one per entry and tree;
// partSlots rounds it up to the sliced filter's power-of-two slot count.
func leadCount(idx *core.Index) int { return idx.Len() * (idx.Options().NumHash / idx.Options().RMax) }
func partSlots(leads int) int       { return 1 << bits.Len(uint(max(leads, 1)-1)) }

func (f partFilter) slots(v uint64) (uint64, uint64) {
	h, m := bloom.Mix(v), uint64(len(f)-1)
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

// leadTrees clears set and inserts every band b whose leading query value
// sig[b·rMax] the filter may contain, returning how many it inserted: the
// unsealed buffer's first question. Sound with zero false negatives: the
// buffer's band compare requires an exact match on that value, and the
// filter holds every one of them, so a band left out cannot match and an
// empty set skips the scan. A filter false positive only adds a band that
// then matches nothing. The filter holds the values masked to the sketch
// backend's lead width — as a sealed forest's lead columns hold them — so the
// query side masks identically with leadMask (the identity under Minwise64).
// sig is clamped to NumHash; set has lshforest.TreeSetWords(NumHash/rMax)
// words.
func leadTrees(set lshforest.TreeSet, f *bloom.Filter, sig minhash.Signature, rMax int, leadMask uint64) int {
	clear(set)
	n := 0
	for t, off := 0, 0; off+rMax <= len(sig); t, off = t+1, off+rMax {
		if f.MayContainHash(sig[off] & leadMask) {
			set.Add(t)
			n++
		}
	}
	return n
}

// trees is a sealed segment's gate, the first question. It asks the lead Bloom
// about the masked leading values in tree order and stops at the first it may
// hold, so a segment pays at most one positive where asking about every tree
// paid one per tree that can match (all of a lib_query query's). The trees
// before that one cannot match; s.from hands the rest to partTrees. It returns
// how many are left — none, as in an empty segment, which has no filters,
// rules the segment out, exactly when asking about every tree would have.
func (m *segMeta) trees(s *queryScratch, sig minhash.Signature, rMax int, leadMask uint64) int {
	nt := len(sig) / rMax
	for t := 0; m.leads != nil && t < nt; t++ {
		if m.leads.MayContainHash(sig[t*rMax] & leadMask) {
			s.from = t
			return nt - t
		}
	}
	return 0
}

// partTrees asks the sliced filter the second question about every tree from
// s.from on, in two passes — all answers into s.answers, so that their misses
// overlap, then the scatter into one tree set per partition of idx: tree t
// enters p's set when the filter may hold sig[t·rMax] in p and the plan probes
// t there (t < pp[p].B; a nil plan is a top-k ladder, whose rungs plan for
// themselves). Sound like the gate. It returns the sets, lent by s, and how
// many columns they hold; s.treesIn counts the trees with a non-empty answer.
func (m *segMeta) partTrees(s *queryScratch, idx *core.Index, sig minhash.Signature, rMax int, leadMask uint64, pp []tune.Params) (sets []lshforest.TreeSet, cols int) {
	m.fillLeads(idx, nil)
	answers := s.answers[:len(sig)/rMax]
	for t := s.from; t < len(answers); t++ {
		answers[t] = m.parts.partitions(sig[t*rMax] & leadMask)
	}
	n := idx.NumPartitions()
	sets = s.partSets(n)
	s.treesIn = 0
	for t := s.from; t < len(answers); t++ {
		ps := answers[t]
		if ps != 0 {
			s.treesIn++
		}
		for ; ps != 0; ps &= ps - 1 {
			for p := bits.TrailingZeros16(ps); p < n; p += 16 {
				if pp == nil || t < pp[p].B {
					sets[p].Add(t)
					cols++
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

// topkSegOrder appends to order the indices of segs sorted by maxBound
// descending — the visit order that lets top-k terminate as early as
// possible. Ties break by index so the order is deterministic.
func topkSegOrder(order []int, segs []*segment) []int {
	for i := range segs {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(i, j int) int {
		return cmp.Compare(segs[j].meta.maxBound, segs[i].meta.maxBound)
	})
	return order
}

// ---- result cache ----

// resultEntry is one cached exact query result. Everything in it is
// immutable after the entry is published except stamp, the approximate-LRU
// clock tick of its last use.
type resultEntry struct {
	gen    uint64              // snapshot generation the result was computed on
	hash   uint64              // queryHash of (sig, size, tBits)
	size   int                 // exact query size
	tBits  uint64              // raw bits of the clamped threshold, or topKBits(k)
	sig    minhash.Signature   // private copy of the query signature
	keys   []string            // a threshold query's result, in fan-out order
	ranked []domain.TopKResult // a top-k query's result, best first

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

// queryHash fingerprints a query for the result cache: FNV-1a over the
// signature words, the size and the threshold bits, finalized with one
// bloom.Mix round, which decorrelates the set index from structured FNV
// output.
func queryHash(sig minhash.Signature, querySize int, tBits uint64) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range sig {
		h = (h ^ v) * prime64
	}
	h = (h ^ uint64(querySize)) * prime64
	h = (h ^ tBits) * prime64
	return bloom.Mix(h)
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
func (c *call) store(sig minhash.Signature, querySize int, tBits, h uint64, keys []string, ranked []domain.TopKResult) {
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
		ranked: append([]domain.TopKResult(nil), ranked...),
	}
	e.stamp.Store(x.rcClock.Add(1))
	x.rc[base+victim].Store(e)
}
