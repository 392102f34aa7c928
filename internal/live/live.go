// Package live implements a mutable, always-queryable LSH Ensemble layered
// on the immutable core.Index — the serving-system counterpart of the
// paper's build-once index (Section 6.2 sketches the dynamic-data story;
// this package gives it a production shape).
//
// # Model
//
// A live Index is an atomically-swapped *snapshot* of three immutable
// parts:
//
//   - sealed segments: each a frozen core.Index over a slice of the corpus,
//     plus the mutation sequence number of every entry;
//   - an unsealed buffer: recent Adds, not yet worth an LSH build, scanned
//     linearly as one extra partition (upper bound = largest buffered size)
//     with the same (b, r) banding test the forest would apply;
//   - a tombstone map: key → sequence number of the Delete (or replacing
//     Add) that cleared it. An entry is live iff no tombstone with a higher
//     sequence number names its key.
//
// Readers load the snapshot pointer once and touch only immutable data, so
// a query never takes a lock a writer holds: Add, Delete and the compactor
// publish by building a NEW snapshot and swapping the pointer. Readers in
// flight keep the old snapshot — every query sees a consistent
// point-in-time view of the corpus.
//
// Writers (Add/Delete) serialize on a mutex, append to a buffer backing
// array whose published prefix is never rewritten, and copy the tombstone
// map on write (it holds only the deletes not yet compacted away, so the
// copies stay small).
//
// A background compactor seals the buffer into a new segment once it
// crosses Options.SealThreshold and merges by size tier: three segments of
// about SealThreshold·3^k entries become one of the next tier, and past
// Options.MaxSegments, a hard cap, the two smallest merge. Dead entries are
// dropped during both; each result is published with one pointer swap. Load
// starts no merge (a mapped boot faults nothing in), so an older snapshot
// keeps its shape until its next seal. Compact runs the whole pipeline to one
// segment and is equivalence-preserving: it answers queries exactly like a
// fresh core.Build over the surviving records (asserted by the package tests).
//
// # Query planning
//
// Every sealed segment carries planner metadata built at seal/merge time
// (segMeta): its domain-size range, its largest partition upper bound, a
// Bloom filter over its keys, and a Bloom filter over the leading
// signature values of every forest tree. A query consults the metadata
// before probing:
//
//   - range pruning: when the segment's largest partition bound u has
//     u/|Q| < t*, the containment bound rules out every partition and the
//     segment is skipped on that one compare; a segment that is probed plans
//     its partitions' (b, r) on the spot (core.PlanPartitions);
//   - leading-value pruning, per column: a probe of forest tree t at any
//     depth ≥ 1 can only match when the query's leading value of that tree
//     occurs in the tree's leading column, so a query asks two questions
//     before a probe: which trees, then which partitions. The leading-value
//     Bloom answers the first, once per tree, and an empty answer skips the
//     segment; an in-memory-only filter sliced by partition (partFilter)
//     answers the second for each tree left. The answers form one tree set
//     (lshforest.TreeSet) per partition, handed down through core to the
//     probe kernel: only the (partition, tree) columns in them are loaded —
//     which is where the time goes, the kernel is cache-miss bound — and a
//     partition whose set is empty is not entered. Zero false negatives
//     either way; a false positive costs one column probed for nothing;
//   - top-k ordering: QueryTopK visits segments largest-bound-first and
//     stops once the worst kept score provably beats any segment still
//     unvisited (the containment upper bound from its partition bounds);
//     each visited segment's tree sets serve every rung of its threshold
//     ladder.
//
// Pruning is conservative by construction — a segment or a column is skipped
// only when it provably contributes nothing — so planned results are
// byte-identical to a full scan (asserted by the package tests).
// Options.DisablePruning restores the full scan — every column of every
// segment and every band of the buffer — as the reference those tests
// compare against.
//
// There is one read path. A threshold query, single or as a batch row, is a
// sequence of visits — every sealed segment (probeSegment: range-prune, ask the
// lead Bloom for the trees, plan, ask the sliced filter for the tree sets,
// probe, drop tombstoned keys), then the buffer — and the unpruned reference is
// the same visit with the filters off. A batch makes its rows' visits
// segment-major, all rows at segment i before any at i+1, because a segment's
// leading columns stay in cache only while the rows visit it together. All
// three shapes (top-k walks its own ladder per segment) run in one frame
// (call): pin the snapshot, consult the result cache, compute, store, and add
// the call's tally of planner decisions to the Stats counters once.
//
// # The result cache and generation coherence
//
// Snapshots carry one monotone generation counter, gen, bumped on every
// publish — Add, Delete, seal, merge, compact. It keys the one cache: a
// bounded set-associative result cache memoizes full query answers, and a hit
// appends the cached keys and allocates nothing.
//
// Readers validate the generation number against the snapshot they loaded —
// no locks on the query path, and a cache entry can never outlive the
// snapshot it was computed against. Tombstone-only changes bump gen, so
// result-cache coherence holds even though the segment set is unchanged.
//
// The unsealed buffer has a planner of its own: an atomic Bloom filter over
// the leading signature value of every buffered entry's trees, asked the
// same per-tree question. A band of a buffered entry can only match when the
// query's leading value of that band occurs in the buffer, so the scan
// compares only the bands in the set (one or two cache lines of each 2 KB
// buffered signature instead of up to NumHash/RMax) and an empty set skips
// the scan entirely. The filter is rebuilt whenever a seal relocates the
// buffer.
//
// # Out-of-core segments
//
// With Options.DataDir set, every sealed segment is spilled to its own
// segment file (see segio.go for the layout): seal and merge write the file
// with an atomic temp+fsync+rename before publishing the segment, and Save
// writes a manifest that references the files instead of embedding the
// segment bytes. With Options.Mmap additionally set, segments are served
// from read-only memory-mapped views of those files: a boot from a manifest
// eagerly reads only each file's header and META section (the record catalog
// and planner metadata) while the signature stores and tree columns stay on
// disk until a probe faults them in — the corpus no longer needs to fit in
// RAM, and cold boot cost is proportional to metadata, not data.
//
// Mapped memory makes object lifetime a correctness matter (touching an
// unmapped page faults), so snapshots and segments are reference counted:
// queries pin the snapshot they read, and a retired segment unmaps only
// after the last reader drops the last snapshot referencing it. Segment
// files are garbage collected against the manifest: files never referenced
// by a manifest are deleted the moment their segment is retired, files a
// manifest references outlive retirement until CollectGarbage runs after
// the next manifest is durable, and boot sweeps files the loaded manifest
// does not reference. Every crash ordering therefore leaves a loadable
// manifest whose files all exist.
//
// Snapshot persistence is versioned: the current format (v4) references
// spilled segment files from a checksummed manifest (inlining any segment
// without a file) and names the sketch backend in its header; v3 is the same
// manifest without the backend tag, v2 carried the planner metadata inline
// and v1 predates the planner — all three still load (see save.go).
package live

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"lshensemble/internal/bloom"
	"lshensemble/internal/core"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/minhash"
	"lshensemble/internal/par"
	"lshensemble/internal/segfile"
	"lshensemble/internal/tune"
)

// Options configures a live index. The embedded core.Options (zero values =
// the paper's defaults) shape every sealed segment's build.
type Options struct {
	core.Options

	// SealThreshold is the buffer length that triggers a background seal.
	// Default 4096; a negative value is refused. Until sealed, buffered
	// entries are answered by a linear banding scan, so the threshold bounds
	// the scan cost per query.
	SealThreshold int

	// MaxSegments caps the sealed segments: below it three segments of a
	// size tier merge, above it the two smallest. Default 8; a negative
	// value is refused.
	MaxSegments int

	// ManualCompaction disables the background compactor; sealing and
	// merging then happen only through explicit Flush/Compact calls.
	// Tests and single-shot tools use this to control timing.
	ManualCompaction bool

	// DisablePruning turns off the query planner (size-range segment
	// pruning, the leading-value filters of segments and buffer, top-k early
	// termination); every query then probes every column of every sealed
	// segment and compares every band of the buffer, as before the planner
	// existed. Pruned and unpruned queries return identical results — the
	// knob is the reference path of the equivalence tests and of A/B
	// measurement.
	DisablePruning bool

	// ResultCacheSize bounds the exact-result cache in entries: 0 selects
	// the default (1024), a negative value disables the cache. Cached
	// results are only served against the exact snapshot generation they
	// were computed on, so any Add/Delete/seal/merge invalidates them all.
	ResultCacheSize int

	// DataDir, when non-empty, enables out-of-core sealed segments: every
	// seal and merge spills its segment to a file in this directory
	// (crash-safely: temp + fsync + atomic rename) and Save writes a
	// manifest referencing the files instead of embedding segment bytes.
	// The directory is created if missing and belongs to this index —
	// unreferenced segment files in it are garbage collected.
	DataDir string

	// Mmap serves sealed segments from read-only memory-mapped views of
	// their segment files instead of heap copies: queries run zero-copy over
	// the mapped bytes and a boot from a manifest reads only each file's
	// metadata eagerly. Requires DataDir. On platforms without mmap support
	// the flag is honored with a heap read (identical results, no laziness).
	Mmap bool
}

func (o Options) withDefaults() Options {
	o.Options = o.Options.WithDefaults()
	if o.SealThreshold == 0 {
		o.SealThreshold = 4096
	}
	if o.MaxSegments == 0 {
		o.MaxSegments = 8
	}
	if o.ResultCacheSize == 0 {
		o.ResultCacheSize = defaultResultCacheSize
	}
	return o
}

// newBufBloom sizes a fresh buffer filter for one seal cycle's worth of
// leading values (SealThreshold entries, one value per tree each), at the
// same operating point as the sealed segments' leads filter. Nil when
// pruning is disabled.
func (x *Index) newBufBloom() *bloom.Atomic {
	if x.opts.DisablePruning {
		return nil
	}
	numLeads := (x.opts.NumHash + x.opts.RMax - 1) / x.opts.RMax
	entries := x.opts.SealThreshold * numLeads
	// NumHash and RMax can come from an untrusted snapshot header, so the
	// product must not drive the allocation: past the cap the filter is
	// merely over-occupied, which costs pruning precision, not correctness.
	const maxBufBloomEntries = 1 << 22
	if entries > maxBufBloomEntries || entries/x.opts.SealThreshold != numLeads {
		entries = maxBufBloomEntries
	}
	return bloom.NewAtomic(entries, leadsBloomBits, leadsBloomK)
}

// addBufLeads inserts a signature's per-tree leading values (the same
// stride leadTrees probes). Buffered signatures are full-width while the
// sealed stores truncate to the sketch backend's width, so leading values
// are masked before insertion — the query side masks identically, keeping
// the filter's zero-false-negative guarantee across the seal boundary.
func addBufLeads(f *bloom.Atomic, sig minhash.Signature, rMax int, mask uint64) {
	if f == nil {
		return
	}
	for off := 0; off < len(sig); off += rMax {
		f.AddHash(sig[off] & mask)
	}
}

// entry is one buffered Add: the record and its mutation sequence number.
type entry struct {
	rec core.Record
	seq uint64
}

// segment is one sealed, immutable slice of the corpus: a frozen core.Index
// plus the per-entry sequence numbers (aligned with the core ids, which
// core.Build assigns in record order) and the planner metadata derived from
// the index (see planner.go). Entries are in ascending seq order.
type segment struct {
	idx  *core.Index
	seqs []uint64
	meta *segMeta

	// refs counts the snapshots listing this segment. The last release
	// closes back (munmap under mmap) and disposes of the file — see
	// segio.go for the lifetime rules.
	refs atomic.Int64

	// back is the segment-file byte region the idx views are built over
	// (nil for heap-built segments).
	back *segfile.Backing

	// finfo is the on-disk identity once spilled (nil until then); set once,
	// read lock-free by Save and Stats.
	finfo atomic.Pointer[segFileInfo]

	// inManifest marks that an encoded manifest references the file, which
	// defers deletion at retirement to CollectGarbage.
	inManifest atomic.Bool

	// resident estimates the heap-resident bytes (for mapped segments, only
	// the eagerly decoded metadata).
	resident int64
}

func (s *segment) minSeq() uint64 { return s.seqs[0] }

// snapshot is one published, immutable state of the index. Everything
// reachable from a snapshot is frozen: writers and the compactor publish
// changes as new snapshots.
type snapshot struct {
	segs  []*segment        // ordered by minSeq
	buf   []entry           // unsealed adds, ascending seq; prefix of the writer's backing array
	tombs map[string]uint64 // key → seq of the clearing Delete/replacing Add

	// bufMax is the largest size among buffered entries — the buffer's
	// partition upper bound for threshold conversion. It may exceed the
	// largest *live* buffered size when the max entry is tombstoned; a too
	// large bound is merely conservative (Eq. 7 never loses candidates).
	bufMax int

	// gen increments on EVERY publish (Add, Delete, seal, merge): it keys
	// the result cache, so a cached result is served only against the exact
	// state it was computed on.
	gen uint64

	// topkOrder holds segment indices sorted by meta.maxBound descending —
	// the visit order QueryTopK uses for early termination. Recomputed only
	// when the segment set changes; Add/Delete publishes share the previous
	// slice.
	topkOrder []int

	// bufBloom filters the leading signature values of this snapshot's
	// buffered entries: a query whose leading values all miss cannot band-
	// collide with any buffered entry, so the linear scan is skipped. The
	// filter is shared with the writer (Adds insert concurrently — extra
	// bits relative to this snapshot's buf prefix only cost false
	// positives) and replaced when a seal relocates the buffer. Nil when
	// pruning is disabled.
	bufBloom *bloom.Atomic

	// refs and dead manage the snapshot's lifetime (segio.go): the current
	// pointer holds one reference, each in-flight reader one more, and the
	// exactly-once teardown releases the segments.
	refs atomic.Int64
	dead atomic.Bool
}

// successor stamps next as the publication following cur: the generation
// advances and the top-k visit order is recomputed when the segment set
// changed, inherited otherwise. Callers must hold x.mu so generations are
// strictly monotonic.
func successor(next, cur *snapshot, segsChanged bool) *snapshot {
	next.gen = cur.gen + 1
	next.topkOrder = cur.topkOrder
	if segsChanged {
		next.topkOrder = topkSegOrder(next.segs)
	}
	return next
}

// alive reports whether an entry of the given key and sequence number is
// still current under this snapshot's tombstones.
func (sn *snapshot) alive(key string, seq uint64) bool {
	return sn.tombs[key] <= seq
}

// Index is a mutable, always-queryable LSH Ensemble. Queries are lock-free
// against writers and the compactor; Add/Delete are safe for concurrent use
// with each other and with queries. See the package comment for the model.
type Index struct {
	opts  Options
	bands *tune.Table // the sealed segments' (b, r) table, for the buffer scan

	snap atomic.Pointer[snapshot]

	// mu serializes writers: Add, Delete, and every snapshot publish.
	// Readers never take it.
	mu      sync.Mutex
	seq     uint64            // last assigned mutation sequence number
	keySeq  map[string]uint64 // live key → seq of its current entry
	bufBack []entry           // buffer backing; published snapshots view prefixes of it

	// bufBloom is the writer-side handle of the current buffer filter
	// (snapshots carry the same pointer); guarded by mu, swapped at seal.
	bufBloom *bloom.Atomic

	// compactMu serializes compaction work (the background goroutine, Flush,
	// Compact): at most one segment build is in flight at a time.
	compactMu sync.Mutex

	domains atomic.Int64  // live domain count (= len(keySeq), readable lock-free)
	seals   atomic.Uint64 // completed seal operations
	merges  atomic.Uint64 // completed merge operations

	// Out-of-core state (segio.go). saveMu serializes Save's spill+encode
	// pass; retMu guards retired, the manifest-referenced files awaiting
	// CollectGarbage; nextSegID names spilled files; spillErrors counts
	// spills that failed (the segment then stays heap-resident).
	saveMu      sync.Mutex
	retMu       sync.Mutex
	retired     []string
	nextSegID   atomic.Uint64
	spillErrors atomic.Uint64

	// Result cache (planner.go): set-associative exact-result slots, nil
	// when disabled. rcMask selects the set; rcClock stamps approximate LRU.
	rc      []atomic.Pointer[resultEntry]
	rcMask  uint64
	rcClock atomic.Uint64

	// Planner observability, surfaced through Stats: every query call adds
	// its tally here once, when it is done.
	counters [numCounters]atomic.Uint64

	scratch sync.Pool // *queryScratch

	nudge     chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// Planner counters. A query call counts its decisions in a tally of its own
// and adds the tally to Index.counters once, in this order: a probed segment
// is counted before its trees, which Stats relies on.
const (
	cSegProbed      = iota // (query, segment) pairs probed
	cTreesProbed           // trees in the tree sets of the probed segments
	cColsProbed            // (partition, tree) columns of the probed segments entered
	cColsSkipped           // planned columns the two lead filters ruled out
	cSegRangePruned        // pairs skipped: every partition ruled out by size
	cSegBloomPruned        // pairs skipped: no leading value can collide
	cResHits
	cResMisses
	cTopKEarlyExits // QueryTopK calls that stopped before the last segment
	cBufScans       // linear buffer scans performed
	cBufBloomSkips  // buffer scans skipped by the buffer's Bloom filter
	numCounters
)

// tally is one query call's share of the planner counters.
type tally [numCounters]uint64

// queryScratch is the pooled per-query working memory of the live fan-out:
// a reusable id buffer for the per-segment candidate lists, the tree set of
// the segment (or buffer) being served and the per-partition sets it scatters
// into (views of one word array), the buffer scan's band offsets, the plan of
// the segment being probed, and a batch worker's tally.
type queryScratch struct {
	ids      []uint32
	trees    lshforest.TreeSet
	sets     []lshforest.TreeSet
	setWords []uint64
	bands    []int
	plan     []tune.Params
	tally    tally
}

// partSets returns n empty tree sets as wide as s.trees.
func (s *queryScratch) partSets(n int) []lshforest.TreeSet {
	w := len(s.trees)
	if len(s.sets) < n {
		s.setWords = make([]uint64, n*w)
		s.sets = make([]lshforest.TreeSet, n)
		for p := range s.sets {
			s.sets[p] = s.setWords[p*w : (p+1)*w]
		}
	}
	clear(s.setWords[:n*w])
	return s.sets[:n]
}

// QueryTrace, when attached to a query's context via WithQueryTrace,
// records what the planner did for that one query — the per-request view
// of the aggregate Stats.Planner counters. The serving layer uses it to
// dump a planner breakdown into the slow-query log. Together with those
// counters it is all the instrumentation on the query path: decisions and
// counts, no durations — the package reads no clock, and a caller that wants
// a latency times its own call (internal/serve does, once per request).
//
// Every query shape overwrites all of it when the call returns. A batch
// reports the decisions of its rows added up (the flags then read "for any
// row", ResultCacheHit "for every row"). A top-k query fills ResultCacheHit,
// Segments and Buffered — its ladder's segment visits are not planner
// decisions and count in neither the trace nor Stats.
type QueryTrace struct {
	// ResultCacheHit reports the query was answered from the result cache
	// without touching a segment.
	ResultCacheHit bool
	// Segments and Buffered describe the snapshot the query ran against.
	Segments int
	Buffered int
	// SegmentsProbed / SegmentsRangePruned / SegmentsBloomPruned partition
	// the per-segment planner decisions for this query.
	SegmentsProbed      int
	SegmentsRangePruned int
	SegmentsBloomPruned int
	// TreesProbed / TreesSkipped split the trees of the probed segments'
	// forests (NumHash/RMax per segment) into those the leading-value Bloom
	// could not rule out and those it did; ColumnsProbed / ColumnsSkipped
	// split the (partition, tree) columns their plans probe into those entered
	// and those either filter ruled out: which partitions were probed.
	TreesProbed    int
	TreesSkipped   int
	ColumnsProbed  int
	ColumnsSkipped int
	// BufferScanned / BufferBloomSkipped report whether the unsealed
	// buffer was linearly scanned or skipped by its Bloom filter.
	BufferScanned      bool
	BufferBloomSkipped bool
}

// traceCtxKey carries a *QueryTrace in a context.
type traceCtxKey struct{}

// WithQueryTrace returns ctx carrying t; a query run under the returned
// context fills it in.
func WithQueryTrace(ctx context.Context, t *QueryTrace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

func queryTraceFrom(ctx context.Context) *QueryTrace {
	t, _ := ctx.Value(traceCtxKey{}).(*QueryTrace)
	return t
}

// New constructs an empty live index and, unless opts.ManualCompaction is
// set, starts its background compactor. Close releases the compactor.
func New(opts Options) (*Index, error) {
	return Build(nil, opts)
}

// newIndex is the one constructor behind Build and Load: it refuses the
// runtime options neither could serve with and returns an index with its
// result cache and data directory set up, and as yet no corpus, no band table
// (Load registers a grid only once the snapshot is accepted) and no compactor.
// opts has its defaults applied and its core.Options validated.
func newIndex(opts Options, keys int) (*Index, error) {
	if opts.SealThreshold < 0 {
		// A seal sizes the next buffer by it, and make panics on a negative
		// capacity — in the compactor goroutine, taking the process with it.
		return nil, fmt.Errorf("live: Options.SealThreshold %d is negative", opts.SealThreshold)
	}
	if opts.MaxSegments < 0 { // the cap would merge one segment with none
		return nil, fmt.Errorf("live: Options.MaxSegments %d is negative", opts.MaxSegments)
	}
	if opts.Mmap && opts.DataDir == "" {
		return nil, fmt.Errorf("live: Options.Mmap requires Options.DataDir")
	}
	x := &Index{
		opts:   opts,
		keySeq: make(map[string]uint64, keys),
		nudge:  make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if opts.ResultCacheSize > 0 {
		x.rc, x.rcMask = newResultCache(opts.ResultCacheSize)
	}
	if opts.DataDir != "" {
		if err := x.initDataDir(); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// Build constructs a live index whose initial corpus is the given records,
// sealed into a single segment (records sharing a key collapse to the last
// occurrence, matching Add-upsert semantics). Unless opts.ManualCompaction
// is set the background compactor is started; Close releases it.
func Build(records []core.Record, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if err := opts.Options.Validate(); err != nil {
		return nil, err
	}
	x, err := newIndex(opts, len(records))
	if err != nil {
		return nil, err
	}
	x.bands = tune.ForGrid(opts.NumHash/opts.RMax, opts.RMax)
	x.bufBloom = x.newBufBloom()
	sn := &snapshot{bufBloom: x.bufBloom}
	if len(records) > 0 {
		for _, r := range records {
			if err := x.validateRecord(r); err != nil {
				return nil, err
			}
		}
		// Upsert semantics: the last record of each key wins, earlier ones
		// are dropped before the build (no tombstone needed — they never
		// become visible).
		last := make(map[string]int, len(records))
		for i, r := range records {
			last[r.Key] = i
		}
		recs := make([]core.Record, 0, len(last))
		seqs := make([]uint64, 0, len(last))
		for i, r := range records {
			if last[r.Key] != i {
				continue
			}
			seq := uint64(i + 1)
			recs = append(recs, r)
			seqs = append(seqs, seq)
			x.keySeq[r.Key] = seq
		}
		seg, err := x.newSegment(recs, seqs)
		if err != nil {
			return nil, err
		}
		sn.segs = []*segment{seg}
		x.seq = uint64(len(records))
		x.domains.Store(int64(len(recs)))
	}
	x.publishInitial(sn)
	if !opts.ManualCompaction {
		go x.compactor()
	} else {
		close(x.done)
	}
	return x, nil
}

func (x *Index) validateRecord(r core.Record) error {
	if r.Size <= 0 {
		return fmt.Errorf("live: record %q has non-positive size %d", r.Key, r.Size)
	}
	if len(r.Sig) < x.opts.NumHash {
		return fmt.Errorf("live: record %q signature length %d < NumHash %d",
			r.Key, len(r.Sig), x.opts.NumHash)
	}
	return nil
}

// Options returns the effective options.
func (x *Index) Options() Options { return x.opts }

// Len returns the number of live domains (tombstoned entries excluded).
func (x *Index) Len() int { return int(x.domains.Load()) }

// Add inserts or replaces a domain. A record whose key is already indexed
// supersedes the old entry (upsert): readers see either the old or the new
// version, never both. The signature is copied, so the caller keeps
// ownership of r.Sig. Add never blocks queries; concurrent Adds serialize
// on an internal mutex. It reports whether an existing entry was replaced.
func (x *Index) Add(r core.Record) (replaced bool, err error) {
	if err := x.validateRecord(r); err != nil {
		return false, err
	}
	// Decouple from the caller's backing array (and clamp to NumHash, the
	// prefix every probe uses): buffered signatures are read lock-free by
	// queries, so later caller mutation must not be observable.
	r.Sig = append(minhash.Signature(nil), r.Sig[:x.opts.NumHash]...)

	x.mu.Lock()
	x.seq++
	seq := x.seq
	cur := x.snap.Load()
	tombs := cur.tombs
	_, replaced = x.keySeq[r.Key]
	if replaced {
		// The replacing Add tombstones every older entry of the key (their
		// seqs are < seq) while leaving the new entry (seq == seq) alive.
		tombs = cloneTombs(tombs, r.Key, seq)
	} else {
		x.domains.Add(1)
	}
	x.keySeq[r.Key] = seq
	// The published prefix of bufBack is immutable: this append writes only
	// at the index just past every published snapshot's view (or relocates
	// to a fresh array), and the longer prefix becomes visible only through
	// the snapshot swap below.
	x.bufBack = append(x.bufBack, entry{rec: r, seq: seq})
	// The filter insert precedes the snapshot store, so any reader that can
	// see this entry also sees its filter bits.
	addBufLeads(x.bufBloom, r.Sig, x.opts.RMax, x.opts.Sketch.Mask())
	bufMax := cur.bufMax
	if r.Size > bufMax {
		bufMax = r.Size
	}
	next := &snapshot{segs: cur.segs, buf: x.bufBack, tombs: tombs, bufMax: bufMax, bufBloom: x.bufBloom}
	old := x.publishLocked(next, cur, false)
	full := len(next.buf) >= x.opts.SealThreshold
	x.mu.Unlock()
	x.releaseSnap(old)

	if full {
		x.kick()
	}
	return replaced, nil
}

// Delete removes a domain by key. It reports whether the key was indexed.
// The entry is tombstoned immediately (readers loading later snapshots no
// longer see it) and physically dropped by the next compaction that touches
// its segment.
func (x *Index) Delete(key string) bool {
	x.mu.Lock()
	if _, ok := x.keySeq[key]; !ok {
		x.mu.Unlock()
		return false
	}
	x.seq++
	seq := x.seq
	delete(x.keySeq, key)
	x.domains.Add(-1)
	cur := x.snap.Load()
	next := &snapshot{segs: cur.segs, buf: cur.buf, tombs: cloneTombs(cur.tombs, key, seq), bufMax: cur.bufMax, bufBloom: x.bufBloom}
	old := x.publishLocked(next, cur, false)
	x.mu.Unlock()
	x.releaseSnap(old)
	return true
}

// cloneTombs returns a copy of tombs with key → seq added. The published
// map is never mutated in place — readers hold it lock-free.
func cloneTombs(tombs map[string]uint64, key string, seq uint64) map[string]uint64 {
	next := make(map[string]uint64, len(tombs)+1)
	for k, v := range tombs {
		next[k] = v
	}
	next[key] = seq
	return next
}

func (x *Index) acquireScratch() *queryScratch {
	s, _ := x.scratch.Get().(*queryScratch)
	if s == nil {
		s = &queryScratch{trees: make(lshforest.TreeSet, lshforest.TreeSetWords(x.numTrees()))}
	}
	return s
}

func (x *Index) releaseScratch(s *queryScratch) { x.scratch.Put(s) }

// numTrees is the tree count of every sealed forest (and the buffer's band
// count): NumHash/RMax.
func (x *Index) numTrees() int { return x.opts.NumHash / x.opts.RMax }

// call is the frame all three query shapes run in: pin the snapshot it
// answers from, count what the planner decides on its behalf. The shapes
// differ only in what they compute between begin and done. It is a value with
// two methods, not a function handed the shape's body as a closure, because
// the query path allocates nothing.
type call struct {
	x *Index
	// sn is pinned until done: a concurrent seal/merge may retire (and under
	// mmap, unmap) segments the call is still probing.
	sn    *snapshot
	trace *QueryTrace // the caller's, from the context; nil when not asked for
	tally tally
}

func (x *Index) begin(ctx context.Context) call {
	return call{x: x, sn: x.acquireSnap(), trace: queryTraceFrom(ctx)}
}

// done fills the caller's trace from the tally and adds the tally to the
// index's counters — once per call, in counter order (see the counter
// constants).
func (c *call) done() {
	x, t := c.x, &c.tally
	if c.trace != nil {
		*c.trace = QueryTrace{
			ResultCacheHit:      t[cResHits] > 0 && t[cResMisses] == 0,
			Segments:            len(c.sn.segs),
			Buffered:            len(c.sn.buf),
			SegmentsProbed:      int(t[cSegProbed]),
			SegmentsRangePruned: int(t[cSegRangePruned]),
			SegmentsBloomPruned: int(t[cSegBloomPruned]),
			TreesProbed:         int(t[cTreesProbed]),
			TreesSkipped:        x.numTrees()*int(t[cSegProbed]) - int(t[cTreesProbed]),
			ColumnsProbed:       int(t[cColsProbed]),
			ColumnsSkipped:      int(t[cColsSkipped]),
			BufferScanned:       t[cBufScans] > 0,
			BufferBloomSkipped:  t[cBufBloomSkips] > 0,
		}
	}
	x.releaseSnap(c.sn)
	for i, n := range t {
		if n != 0 {
			x.counters[i].Add(n)
		}
	}
}

// Query returns the keys of all candidate domains for the query signature
// at containment threshold tStar (see core.Index.QueryIDsAppend for parameter
// semantics). It is lock-free against Add, Delete and the compactor, and
// answers from a consistent point-in-time snapshot. Each live key appears
// at most once.
func (x *Index) Query(sig minhash.Signature, querySize int, tStar float64) []string {
	return x.QueryAppend(nil, sig, querySize, tStar)
}

// QueryAppend is Query appending into dst (which may be nil). A serving
// loop reusing dst runs allocation-free in steady state, matching the
// immutable index's QueryIDsAppend path: both the result-cache hit path and
// the planned fan-out append without allocating, whatever mix of query sizes
// and thresholds arrives (the package's allocation tests assert it).
func (x *Index) QueryAppend(dst []string, sig minhash.Signature, querySize int, tStar float64) []string {
	dst, _ = x.QueryAppendContext(context.Background(), dst, sig, querySize, tStar)
	return dst
}

// QueryAppendContext is QueryAppend under a context: the fan-out checks ctx
// between segments (and periodically inside the buffer scan), so a canceled
// request stops probing instead of running the query to completion. On
// cancellation dst is returned grown by an unspecified prefix of the answer
// alongside ctx.Err(); the partially collected candidates are never cached.
func (x *Index) QueryAppendContext(ctx context.Context, dst []string, sig minhash.Signature, querySize int, tStar float64) ([]string, error) {
	c := x.begin(ctx)
	defer c.done()
	if err := x.opts.CheckQuerySig(sig); err != nil {
		return dst, err
	}
	if querySize <= 0 {
		return dst, nil
	}
	sig = sig[:x.opts.NumHash]
	tStar = max(0, min(tStar, 1))
	tBits := math.Float64bits(tStar)
	e, h := c.cached(sig, querySize, tBits)
	if e != nil {
		return append(dst, e.keys...), nil
	}
	base := len(dst)
	dst, err := x.querySnapshot(ctx, dst, &c, sig, querySize, tStar)
	if err == nil {
		c.store(sig, querySize, tBits, h, dst[base:], nil)
	}
	return dst, err
}

// querySnapshot answers one query from the call's snapshot: every sealed
// segment through probeSegment, then the buffer. sig and tStar must already be
// clamped. ctx is checked once per segment and periodically inside the buffer
// scan; on cancellation dst is returned as collected so far alongside
// ctx.Err().
func (x *Index) querySnapshot(ctx context.Context, dst []string, c *call, sig minhash.Signature, querySize int, tStar float64) ([]string, error) {
	s := x.acquireScratch()
	defer x.releaseScratch(s)
	for si := range c.sn.segs {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		dst = x.probeSegment(dst, s, &c.tally, c.sn, si, sig, querySize, tStar)
	}
	return x.appendBufferMatches(ctx, dst, s, &c.tally, c.sn, sig, querySize, tStar)
}

// probeSegment is the (query, segment) step of every threshold query, single
// or batch row, and the one place a sealed segment is planned. In this order,
// cheapest first: skip segment si when its largest partition bound rules out
// every partition (maxBound/q < t*), ask its lead Bloom which trees can match
// and skip it when none can, and only then plan its partitions' (b, r), ask
// the sliced filter which columns of those trees can match (partTrees), probe
// them, and append the keys of the candidates the snapshot's tombstones leave
// alive. Planning after the Bloom matters: a plan made for a segment the Bloom
// then rules out is the whole cost of planning on the spot. Under
// Options.DisablePruning both filters and the range check are off — the
// unpruned reference: every segment is planned and every planned column
// probed. Decisions are counted in t; s lends the tree sets, the plan and the
// id buffer. tStar must already be clamped.
func (x *Index) probeSegment(dst []string, s *queryScratch, t *tally, sn *snapshot, si int,
	sig minhash.Signature, querySize int, tStar float64) []string {
	seg := sn.segs[si]
	pruned := !x.opts.DisablePruning
	rMax, mask := x.opts.RMax, x.opts.Sketch.Mask()
	n := x.numTrees()
	if pruned {
		if rangePruned(seg.meta.maxBound, querySize, tStar) {
			t[cSegRangePruned]++
			return dst
		}
		if n = seg.meta.trees(s, sig, rMax, mask); n == 0 {
			t[cSegBloomPruned]++
			return dst
		}
	}
	s.plan = seg.idx.PlanPartitions(s.plan[:0], querySize, tStar)
	planned := 0 // the columns the plan probes
	for _, p := range s.plan {
		planned += p.B
	}
	var trees []lshforest.TreeSet // nil = every column
	cols := planned
	if pruned {
		trees, cols = seg.meta.partTrees(s, seg.idx, sig, rMax, mask, s.plan)
	}
	t[cSegProbed]++
	t[cTreesProbed] += uint64(n)
	t[cColsProbed] += uint64(cols)
	t[cColsSkipped] += uint64(planned - cols)
	// No error can come back: sig was length-checked by the caller and the
	// plan was made on this segment.
	s.ids, _ = seg.idx.QueryIDsMaskedAppend(s.ids[:0], sig, s.plan, trees)
	return appendLiveKeys(dst, sn, seg, s.ids)
}

// appendLiveKeys appends the keys of the candidate ids that survive the
// snapshot's tombstones.
func appendLiveKeys(dst []string, sn *snapshot, seg *segment, ids []uint32) []string {
	if len(sn.tombs) == 0 {
		for _, id := range ids {
			dst = append(dst, seg.idx.Key(id))
		}
		return dst
	}
	for _, id := range ids {
		if key := seg.idx.Key(id); sn.alive(key, seg.seqs[id]) {
			dst = append(dst, key)
		}
	}
	return dst
}

// appendBufferMatches linearly scans the unsealed buffer, treating it as
// one more partition whose upper size bound is the largest buffered size:
// the containment threshold converts to a Jaccard threshold exactly as a
// sealed partition would convert it (Eq. 7, conservative), the segments'
// (b, r) table gives one configuration for the whole scan, and an entry
// matches if any of the b bands of r hash values collide — the LSH forest's
// collision condition, without the forest. The buffer's leading-value filter
// names the bands that can collide at all (leadTrees): none skips the scan,
// and the scan compares only those, reading one or two cache lines of a
// buffered 2 KB signature where the full compare walks up to b of them.
// tStar must already be clamped; s lends the tree set and band offsets, and
// the scan-or-skip decision is counted in t.
func (x *Index) appendBufferMatches(ctx context.Context, dst []string, s *queryScratch, t *tally, sn *snapshot, sig minhash.Signature, querySize int, tStar float64) ([]string, error) {
	if len(sn.buf) == 0 {
		return dst, nil
	}
	if rangePruned(sn.bufMax, querySize, tStar) {
		return dst, nil
	}
	rMax := x.opts.RMax
	mask := x.opts.Sketch.Mask()
	var trees lshforest.TreeSet // nil = every band: the unpruned reference scan
	if sn.bufBloom != nil {
		if leadTrees(s.trees, sn.bufBloom, sig, rMax, mask) == 0 {
			t[cBufBloomSkips]++
			return dst, nil
		}
		trees = s.trees
	}
	t[cBufScans]++
	params := x.bands.Optimize(float64(sn.bufMax), float64(querySize), tStar)
	s.bands = s.bands[:0]
	for b := 0; b < params.B; b++ {
		if trees.Has(b) {
			s.bands = append(s.bands, b*rMax)
		}
	}
	for i := range sn.buf {
		// The buffer is bounded by SealThreshold in steady state but not
		// when the compactor is disabled or behind, so a long scan still
		// honors cancellation — at a stride that costs nothing when it
		// doesn't.
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return dst, err
			}
		}
		e := &sn.buf[i]
		if !sn.alive(e.rec.Key, e.seq) {
			continue
		}
		if bandsCollide(sig, e.rec.Sig, s.bands, params.R, mask) {
			dst = append(dst, e.rec.Key)
		}
	}
	return dst, nil
}

// bandsCollide reports whether any of the bands starting at the given
// signature offsets, compared at depth r, agree between the two signatures —
// the LSH forest's collision condition for one entry. Values are compared
// under the sketch backend's truncation mask, so the buffer scan collides
// exactly when the sealed forest would have (the buffer holds full-width
// signatures, the sealed store truncated ones).
func bandsCollide(a, b minhash.Signature, bands []int, r int, mask uint64) bool {
	for _, off := range bands {
		match := true
		for k := off; k < off+r; k++ {
			if a[k]&mask != b[k]&mask {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// sketchContainment scores a full-width buffered signature against the query
// the way the sealed store would: slot agreement is counted under the
// backend's truncation mask and converted through its bias-corrected
// estimator. Under Minwise64 the result is float-identical to
// a.Containment(b, q, x), so buffer and segment scores merge consistently
// for every backend.
func sketchContainment(sb core.SketchBackend, a, b minhash.Signature, q, x float64) float64 {
	mask := sb.Mask()
	eq := 0
	for k := range a {
		if a[k]&mask == b[k]&mask {
			eq++
		}
	}
	return sb.ContainmentFromMatch(eq, len(a), q, x)
}

// QueryBatch answers every query of the batch (the daemon's high-throughput
// path) with up to `workers` goroutines (0 means GOMAXPROCS). Rows are in
// query order; each row holds the keys of the query's live candidates. Like
// Query it is lock-free against writers and the compactor.
//
// A row is a Query: the result cache answers it outright when it can, and
// otherwise the row makes the same visits through the same probeSegment, so
// rows are identical to single queries and move the planner counters by the
// same amounts. What the batch adds is the order of the visits —
// segment-major: the rows still pending are fanned across the workers for
// segment 0, then for segment 1, …, then for the buffer — because
// a segment's leading columns stay cache-resident only while rows visit it
// together (row-major cost the ledger 5 % of lib_query's sat_qps).
func (x *Index) QueryBatch(queries []core.BatchQuery, workers int) [][]string {
	rows, _ := x.QueryBatchContext(context.Background(), queries, workers)
	return rows
}

// batchRow is a batch row the result cache did not answer: the normalized
// query, where its answer goes and its cache key.
type batchRow struct {
	core.BatchQuery
	row        int
	bits, hash uint64
}

// QueryBatchContext is QueryBatch under a context: ctx is checked before
// every row's visit to a segment or the buffer, so a disconnected client or
// expired deadline stops the batch after at most one visit in flight per
// worker instead of burning CPU to completion. On cancellation it returns
// (nil, ctx.Err()); partial rows are discarded, never cached. A trace in ctx
// receives the decisions of all rows added up.
func (x *Index) QueryBatchContext(ctx context.Context, queries []core.BatchQuery, workers int) ([][]string, error) {
	c := x.begin(ctx)
	defer c.done()
	sn := c.sn
	rows := make([][]string, len(queries))
	pending := make([]batchRow, 0, len(queries))
	for i, q := range queries {
		if q.Size <= 0 || len(q.Sig) < x.opts.NumHash {
			continue // a row no single query would serve stays empty
		}
		q.Sig = q.Sig[:x.opts.NumHash]
		q.Threshold = max(0, min(q.Threshold, 1))
		bits := math.Float64bits(q.Threshold)
		e, h := c.cached(q.Sig, q.Size, bits)
		if e != nil {
			rows[i] = append(rows[i], e.keys...)
			continue
		}
		pending = append(pending, batchRow{BatchQuery: q, row: i, bits: bits, hash: h})
	}
	if len(pending) == 0 {
		return rows, nil
	}
	// One scratch per worker; each worker counts in its scratch's tally, off
	// the other workers' cache lines.
	workers = par.Clamp(workers, len(pending))
	scratch := make([]*queryScratch, workers)
	for w := range scratch {
		scratch[w] = x.acquireScratch()
		scratch[w].tally = tally{}
	}
	// Stop si < len(sn.segs) is sealed segment si, the last stop the buffer.
	for si := 0; si <= len(sn.segs) && ctx.Err() == nil; si++ {
		par.Drain(len(pending), workers, func(w, j int) {
			if ctx.Err() != nil {
				return
			}
			p, s := &pending[j], scratch[w]
			if si < len(sn.segs) {
				rows[p.row] = x.probeSegment(rows[p.row], s, &s.tally, sn, si, p.Sig, p.Size, p.Threshold)
			} else {
				// The scan's only error is ctx's, read below.
				rows[p.row], _ = x.appendBufferMatches(ctx, rows[p.row], s, &s.tally, sn, p.Sig, p.Size, p.Threshold)
			}
		})
	}
	for _, s := range scratch {
		for i, n := range s.tally {
			c.tally[i] += n
		}
		x.releaseScratch(s)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range pending {
		p := &pending[i]
		c.store(p.Sig, p.Size, p.bits, p.hash, rows[p.row], nil)
	}
	return rows, nil
}

// QueryTopK returns (up to) k live domains ranked by estimated containment
// of the query, merged across every sealed segment and the buffer (see
// core.Index.QueryTopKIDs for the candidate ladder). Segments are visited
// in descending order of their largest partition bound: once k collected
// results all score strictly above the containment cap of every remaining
// segment, those segments are skipped — they provably cannot alter the
// top k. Like Query it is lock-free against writers and the compactor, and
// like Query it answers a repeat of (signature, size, k) on an unchanged
// index from the result cache: the caller owns the returned slice either way.
func (x *Index) QueryTopK(sig minhash.Signature, querySize, k int) []core.TopKResult {
	results, _ := x.QueryTopKContext(context.Background(), sig, querySize, k)
	return results
}

// QueryTopKContext is QueryTopK under a context: ctx is checked before each
// segment visit, so a canceled request stops ranking instead of walking the
// remaining segments. On cancellation it returns (nil, ctx.Err()), and the
// partial ranking is never cached.
func (x *Index) QueryTopKContext(ctx context.Context, sig minhash.Signature, querySize, k int) ([]core.TopKResult, error) {
	c := x.begin(ctx)
	defer c.done()
	if err := x.opts.CheckQuerySig(sig); err != nil {
		return nil, err
	}
	if k <= 0 || querySize <= 0 {
		return nil, nil
	}
	sig = sig[:x.opts.NumHash]
	sn := c.sn
	// More than every physical entry cannot be ranked, and the bound keeps
	// k + tombstones below from wrapping negative for a k near math.MaxInt.
	entries := len(sn.buf)
	for _, seg := range sn.segs {
		entries += seg.idx.Len()
	}
	if k > entries {
		k = entries
	}
	kBits := topKBits(k)
	hit, h := c.cached(sig, querySize, kBits)
	if hit != nil {
		return append([]core.TopKResult(nil), hit.ranked...), nil
	}
	q := float64(querySize)
	// Tombstoned candidates are filtered after collection, so ask each
	// segment for enough ids to survive the worst-case filtering.
	need := k + len(sn.tombs)
	var results []core.TopKResult
	kth := func() float64 { return results[k-1].EstContainment }
	rank := func() {
		slices.SortFunc(results, core.CompareTopK)
		if len(results) > k {
			results = results[:k]
		}
	}
	s := x.acquireScratch()
	defer x.releaseScratch(s)
	for _, si := range sn.topkOrder {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seg := sn.segs[si]
		// Strict >: a remaining segment whose cap ties the current k-th
		// score could still win its tie-break, so it is only skippable when
		// even its best possible estimate falls short.
		if !x.opts.DisablePruning && len(results) >= k && kth() > containmentBound(seg.meta.maxBound, q) {
			c.tally[cTopKEarlyExits] = 1
			break
		}
		// The segment's tree sets serve every rung of the ladder; no tree
		// means no rung can collect a candidate here.
		var trees []lshforest.TreeSet
		if !x.opts.DisablePruning {
			rMax, mask := x.opts.RMax, x.opts.Sketch.Mask()
			if seg.meta.trees(s, sig, rMax, mask) == 0 {
				continue
			}
			trees, _ = seg.meta.partTrees(s, seg.idx, sig, rMax, mask, nil)
		}
		// No error can come back: sig was length-checked above.
		s.ids, _ = seg.idx.QueryTopKIDsMasked(s.ids[:0], sig, querySize, need, trees)
		for _, id := range s.ids {
			key := seg.idx.Key(id)
			if !sn.alive(key, seg.seqs[id]) {
				continue
			}
			est := seg.idx.EstContainment(id, sig, querySize)
			results = append(results, core.TopKResult{Key: key, EstContainment: est})
		}
		rank()
	}
	if len(sn.buf) > 0 {
		if !x.opts.DisablePruning && len(results) >= k && kth() > containmentBound(sn.bufMax, q) {
			c.tally[cTopKEarlyExits] = 1
		} else {
			for i := range sn.buf {
				e := &sn.buf[i]
				if !sn.alive(e.rec.Key, e.seq) {
					continue
				}
				est := sketchContainment(x.opts.Sketch, sig, e.rec.Sig, q, float64(e.rec.Size))
				results = append(results, core.TopKResult{Key: e.rec.Key, EstContainment: est})
			}
			rank()
		}
	}
	c.store(sig, querySize, kBits, h, nil, results)
	return results, nil
}

// Stats is a point-in-time summary of the index's shape.
type Stats struct {
	// Domains is the number of live domains (tombstoned entries excluded).
	Domains int `json:"domains"`
	// Segments holds the entry count of every sealed segment (including
	// entries already tombstoned but not yet compacted away).
	Segments []int `json:"segments"`
	// Buffered is the unsealed buffer length (including tombstoned entries).
	Buffered int `json:"buffered"`
	// Tombstones is the number of pending tombstones (deletes and
	// replacements not yet compacted away).
	Tombstones int `json:"tombstones"`
	// Seq is the highest mutation sequence number visible to readers.
	Seq uint64 `json:"seq"`
	// Seals and Merges count completed compactor operations.
	Seals  uint64 `json:"seals"`
	Merges uint64 `json:"merges"`
	// Sketch names the signature backend sealed segments store with
	// (core.SketchBackend): "minwise32" unless configured or loaded otherwise.
	Sketch string `json:"sketch"`
	// SignatureBytes is the total stored signature footprint: the sealed
	// segments' truncated stores plus the unsealed buffer's full-width
	// signatures. The compact sketch backends shrink the sealed share.
	SignatureBytes int64 `json:"signature_bytes"`
	// SpillErrors counts segment spills that failed; the affected segments
	// keep serving from the heap.
	SpillErrors uint64 `json:"spill_errors,omitempty"`
	// SegmentDetail describes every sealed segment's planner metadata, in
	// the same order as Segments.
	SegmentDetail []SegmentStats `json:"segment_detail,omitempty"`
	// Planner aggregates the query planner's pruning and cache counters
	// since the index was created.
	Planner PlannerStats `json:"planner"`
}

// SegmentStats describes one sealed segment.
type SegmentStats struct {
	// Entries is the physical entry count (tombstoned entries included).
	Entries int `json:"entries"`
	// MinSize and MaxSize are the smallest and largest domain cardinality.
	MinSize int `json:"min_size"`
	MaxSize int `json:"max_size"`
	// MaxBound is the largest partition upper bound — the size the planner
	// prunes and orders by.
	MaxBound int `json:"max_bound"`
	// BloomBytes is the footprint of the segment's planner filters: the two
	// saved Bloom filters and the in-memory partition-sliced one.
	BloomBytes int `json:"bloom_bytes"`
	// SignatureBytes is the byte size of the segment's signature store at
	// the sketch backend's width (entries × NumHash × width).
	SignatureBytes int `json:"signature_bytes"`
	// Backing reports where the segment's probe data lives: "heap" or
	// "mmap" (a memory-mapped segment file).
	Backing string `json:"backing"`
	// FileBytes is the segment's on-disk file size; 0 until spilled.
	FileBytes int64 `json:"file_bytes"`
	// ResidentBytes estimates the heap-resident footprint. For mapped
	// segments only the decoded metadata and the planner filters count — the
	// signature store and tree columns page in and out on demand.
	ResidentBytes int64 `json:"resident_bytes"`
}

// PlannerStats aggregates the planner's lifetime counters. Segment
// decisions count once per (query, segment) pair.
type PlannerStats struct {
	// SegmentsProbed / SegmentsRangePruned / SegmentsBloomPruned partition
	// the planner's per-segment decisions: probed, skipped because every
	// partition was ruled out by size, or skipped because the leading-value
	// Bloom left no tree that could match (the empty tree set).
	SegmentsProbed      uint64 `json:"segments_probed"`
	SegmentsRangePruned uint64 `json:"segments_range_pruned"`
	SegmentsBloomPruned uint64 `json:"segments_bloom_pruned"`
	// TreesProbed / TreesSkipped split the trees of every probed segment
	// (NumHash/RMax each, so the two sum to that × SegmentsProbed) into the
	// ones the segment's leading-value Bloom could not rule out for the
	// query and the ones it did.
	TreesProbed  uint64 `json:"trees_probed"`
	TreesSkipped uint64 `json:"trees_skipped"`
	// ColumnsProbed / ColumnsSkipped split the (partition, tree) columns the
	// probed segments' plans probe (the first b trees of a planned partition)
	// into those entered and those either leading-value filter ruled out.
	ColumnsProbed  uint64 `json:"columns_probed"`
	ColumnsSkipped uint64 `json:"columns_skipped"`
	// PlanHits / PlanMisses counted lookups of a plan cache that no longer
	// exists: always zero.
	//
	// Deprecated: kept only because bench/ compiles against them; the
	// [benchmark] PR that edits bench/ removes them.
	PlanHits   uint64 `json:"-"`
	PlanMisses uint64 `json:"-"`
	// ResultHits / ResultMisses count result-cache lookups (zero when the
	// cache is disabled).
	ResultHits   uint64 `json:"result_hits"`
	ResultMisses uint64 `json:"result_misses"`
	// TopKEarlyExits counts QueryTopK calls that stopped before visiting
	// every segment.
	TopKEarlyExits uint64 `json:"topk_early_exits"`
	// BufferScans / BufferBloomPruned partition the unsealed-buffer
	// decisions: linear scans performed vs skipped because every query
	// leading value missed the buffer's Bloom filter.
	BufferScans       uint64 `json:"buffer_scans"`
	BufferBloomPruned uint64 `json:"buffer_bloom_pruned"`
}

// Stats returns a consistent snapshot summary without blocking writers.
func (x *Index) Stats() Stats {
	sn := x.acquireSnap()
	defer x.releaseSnap(sn)
	// Loaded in this order — trees, then segments — every probe whose trees
	// are in the first number is in the second (call.done adds segments
	// first), so the skipped trees derived below cannot come out negative
	// under concurrent queries.
	treesProbed := x.counters[cTreesProbed].Load()
	segProbed := x.counters[cSegProbed].Load()
	st := Stats{
		Domains:     x.Len(),
		Segments:    make([]int, len(sn.segs)),
		Buffered:    len(sn.buf),
		Tombstones:  len(sn.tombs),
		Seals:       x.seals.Load(),
		Merges:      x.merges.Load(),
		Sketch:      x.opts.Sketch.String(),
		SpillErrors: x.spillErrors.Load(),
		Planner: PlannerStats{
			SegmentsProbed:      segProbed,
			SegmentsRangePruned: x.counters[cSegRangePruned].Load(),
			SegmentsBloomPruned: x.counters[cSegBloomPruned].Load(),
			TreesProbed:         treesProbed,
			TreesSkipped:        uint64(x.numTrees())*segProbed - treesProbed,
			ColumnsProbed:       x.counters[cColsProbed].Load(),
			ColumnsSkipped:      x.counters[cColsSkipped].Load(),
			ResultHits:          x.counters[cResHits].Load(),
			ResultMisses:        x.counters[cResMisses].Load(),
			TopKEarlyExits:      x.counters[cTopKEarlyExits].Load(),
			BufferScans:         x.counters[cBufScans].Load(),
			BufferBloomPruned:   x.counters[cBufBloomSkips].Load(),
		},
	}
	if len(sn.segs) > 0 {
		st.SegmentDetail = make([]SegmentStats, len(sn.segs))
	}
	for i, seg := range sn.segs {
		st.Segments[i] = seg.idx.Len()
		backing := "heap"
		if seg.back != nil && seg.back.Mapped() {
			backing = "mmap"
		}
		var fileBytes int64
		if fi := seg.finfo.Load(); fi != nil {
			fileBytes = fi.size
		}
		sigBytes := seg.idx.SignatureBytes()
		st.SignatureBytes += int64(sigBytes)
		st.SegmentDetail[i] = SegmentStats{
			Entries:        seg.idx.Len(),
			MinSize:        seg.meta.minSize,
			MaxSize:        seg.meta.maxSize,
			MaxBound:       seg.meta.maxBound,
			BloomBytes:     seg.meta.bloomBytes(seg.idx),
			SignatureBytes: sigBytes,
			Backing:        backing,
			FileBytes:      fileBytes,
			ResidentBytes:  seg.resident,
		}
	}
	// Buffered entries always hold full-width signatures; they truncate at
	// seal time.
	st.SignatureBytes += int64(len(sn.buf)) * int64(x.opts.NumHash) * 8
	for _, seg := range sn.segs {
		if n := len(seg.seqs); n > 0 && seg.seqs[n-1] > st.Seq {
			st.Seq = seg.seqs[n-1]
		}
	}
	if n := len(sn.buf); n > 0 && sn.buf[n-1].seq > st.Seq {
		st.Seq = sn.buf[n-1].seq
	}
	for _, s := range sn.tombs {
		if s > st.Seq {
			st.Seq = s
		}
	}
	return st
}
