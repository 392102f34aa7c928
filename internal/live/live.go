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
//     sequence number names its key; only the candidates of a segment
//     that a tombstone may reach (its shadow bit) ask the map.
//
// Readers load the snapshot pointer once and touch only immutable data, so
// a query never takes a lock a writer holds: Add, Delete and the compactor
// publish by building a NEW snapshot and swapping the pointer. Readers in
// flight keep the old snapshot — every query sees a consistent
// point-in-time view of the corpus.
//
// A snapshot's state — segments, buffer, tombstones, the last mutation it
// applies and its live domain count — is the index's whole state: every
// change (Add, Delete, seal, merge) copies the current state, edits the copy
// and publishes it, and a reader (a query, Save, Stats, Len) needs nothing
// from the writer but the snapshot it pins. Writers serialize on a mutex. An
// Add appends to the buffer's entries and signature arena at the published
// length, so no published prefix is ever rewritten (a full array regrows into
// a fresh one, and older snapshots keep reading theirs); a Delete or an
// upsert copies the tombstone map (it holds only the deletes not yet
// compacted away, so the copies stay small).
//
// A background compactor seals the buffer into a new segment once it
// crosses Options.SealThreshold and merges by size tier: three segments of
// about SealThreshold·3^k entries become one of the next tier, and past
// Options.MaxSegments, a hard cap, the two smallest merge. A seal, a merge,
// Flush and Compact are one operation, a rewrite: the live entries of some
// segments, and of the buffer when it seals, are built into one new segment
// that replaces them. Before it takes the writer lock, the rewrite also sweeps
// the tombstones: one that no longer shadows any entry left in the index
// goes. Under the lock it only swaps the segments and publishes. Load
// starts no merge (a mapped boot faults nothing in), so an older snapshot
// keeps its shape until its next seal. Compact rewrites the buffer and every
// segment into one segment and is equivalence-preserving: it answers queries
// exactly like a fresh core.Build over the surviving records (asserted by the
// package tests).
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
//     Bloom answers the first, asked in tree order up to the first tree it
//     may hold (the trees before it cannot match), and a segment with no such
//     tree is skipped; an in-memory-only filter sliced by partition
//     (partFilter) answers the second for each tree left. The answers form one tree set
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
// The unsealed buffer has a planner of its own: a bloom.Filter like a sealed
// segment's, over the leading signature value of every buffered entry's
// trees, asked the same per-tree question. A band of a buffered entry can
// only match when the query's leading value of that band occurs in the
// buffer, so an empty set skips the scan entirely, and the scan reads only
// the set's bands from the buffer's lead columns: every buffered entry's
// leading values, band-major, the layout of a sealed forest's tree columns.
// A buffered signature is read only on a lead hit, for the band's other
// r − 1 values, and the tombstones are asked only about entries that
// collide. Together these cut the buffer's share of lib_query's query CPU,
// for 1.4 % of its entries, from 30 % to 11 % in a seed-5 profile (sat_qps
// ×1.16–1.30, 2-vCPU Xeon).
//
// The buffered signatures are kept at the sketch backend's width and the lead
// columns at its lead width, as the segment they seal into stores them, in
// one arena (sigArena) that Add narrows into: every reader of a buffered
// value already compared at those widths, so answers are unchanged while the
// buffer holds, and a snapshot saves 576 of the 2 048 full-width bytes an
// entry at m = 256 under the default minwise16. Top-k scores the buffer in
// one sequential pass over the arena, each entry with the width's vector
// match count (minhash.Matches) that scores a sealed candidate too, and heaps
// only the best k; a seal hands core.BuildFrom the arena's entries widened
// one at a time. The filter and the arena are part of the buffer value
// (buffer.with grows them with the entries): Add writes its entry into the
// current ones while queries read them, and a seal, which relocates the
// buffer, starts fresh ones for the entries it carries over.
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
// Snapshot persistence is versioned: the current format (v5) references
// spilled segment files from a checksummed manifest (inlining any segment
// without a file), names the sketch backend in its header and writes the
// buffered signatures at its width; v4 wrote them full-width, v3 is v4
// without the backend tag, v2 carried the planner metadata inline and v1
// predates the planner — all four still load (see save.go).
package live

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"lshensemble/internal/bloom"
	"lshensemble/internal/core"
	"lshensemble/internal/domain"
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

// newBuffer returns an empty buffer whose filter is sized for one seal
// cycle's worth of leading values (SealThreshold entries, one value per tree
// each), at the same operating point as the sealed segments' leads filter.
// The filter is nil when pruning is disabled.
func (x *Index) newBuffer() buffer {
	sigs := newArena(x.opts.Sketch, x.opts.NumHash, x.opts.RMax)
	if x.opts.DisablePruning {
		return buffer{sigs: sigs}
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
	return buffer{sigs: sigs, bufBloom: bloom.New(entries, leadsBloomBits, leadsBloomK)}
}

// entry is one buffered Add: the record's key and size and its mutation
// sequence number. Its signature is in the buffer's arena, at the entry's
// position.
type entry struct {
	key  string
	size int
	seq  uint64
}

// firstArenaCap is the entry capacity of a buffer's first arena.
const firstArenaCap = 64

// scanBlock is how many buffered entries a threshold scan takes at a time,
// checking its context between blocks; blockHits has a bit for each. The
// hits go to the arena and back by value, so that they stay on the stack.
const scanBlock = 1024

type blockHits [scanBlock / 64]uint64

// sigArena holds the buffered signatures at the sketch backend's width, one
// entry's NumHash values after another in one array, and beside them every
// entry's leading value of each band at the backend's lead width
// (core.SketchBackend.LeadBytes), in the sealed forest's layout: one column
// per band, band-major. Top-k scores the buffer in one sequential pass over
// the signatures, a threshold scan reads the columns of the bands it asks
// about and a signature only on a lead hit; the signatures take a half
// (minwise32) or a quarter (minwise16) of the full-width bytes, the columns
// never less than 4 bytes a lead. Every reader of a buffered value compares
// at those widths anyway (the store it seals into truncates identically), so
// answers do not change. A snapshot reads entries below its buffer length;
// the writer appends at the length, and a full arena regrows into a fresh one
// of twice the entries: no published prefix is rewritten, and older
// snapshots keep theirs.
type sigArena interface {
	// with writes sig, cut to the width, as entry n and returns the arena.
	with(n int, sig []uint64) sigArena
	// band returns hits with bit i set for each entry lo+i < hi whose band
	// of r values at off agrees with q at the width.
	band(hits blockHits, lo, hi, off, r int, q []uint64) blockHits
	// matches counts the slots of entry i that agree with q at the width.
	matches(i int, q []uint64) int
	// widen appends entry i's values, zero-extended, to dst: its stored
	// values, each band's lead from its column at the lead width.
	widen(dst []uint64, i int) []uint64
	// width is the bytes a value takes.
	width() int
}

// arena is the sigArena of one width E and lead width L: entry i's signature
// at sigs[i·nh : (i+1)·nh], its leading value of band b at leads[b·cap + i].
type arena[E, L segfile.Elem] struct {
	sigs          []E
	leads         []L
	nh, rMax, cap int
}

// newArena returns an empty arena at sb's widths for signatures of numHash
// values in bands of rMax.
func newArena(sb core.SketchBackend, numHash, rMax int) sigArena {
	switch sb.WidthBytes() {
	case 2:
		return &arena[uint16, uint32]{nh: numHash, rMax: rMax}
	case 4:
		return &arena[uint32, uint32]{nh: numHash, rMax: rMax}
	}
	return &arena[uint64, uint64]{nh: numHash, rMax: rMax}
}

func (a *arena[E, L]) with(n int, sig []uint64) sigArena {
	bands := a.nh / a.rMax
	if n == a.cap {
		c := max(firstArenaCap, 2*n)
		next := &arena[E, L]{sigs: make([]E, c*a.nh), leads: make([]L, bands*c), nh: a.nh, rMax: a.rMax, cap: c}
		copy(next.sigs, a.sigs[:n*a.nh])
		for b := 0; b < bands; b++ {
			copy(next.leads[b*c:b*c+n], a.leads[b*n:])
		}
		a = next
	}
	row := a.row(n)
	for k := range row {
		row[k] = E(sig[k])
	}
	for b := 0; b < bands; b++ {
		a.leads[b*a.cap+n] = L(sig[b*a.rMax])
	}
	return a
}

func (a *arena[E, L]) row(i int) []E { return a.sigs[i*a.nh : (i+1)*a.nh] }

func (a *arena[E, L]) band(hits blockHits, lo, hi, off, r int, q []uint64) blockHits {
	lead, col := L(q[off]), a.leads[off/a.rMax*a.cap:]
	for i, v := range col[lo:hi] {
		if v != lead {
			continue
		}
		k, row := 1, a.row(lo + i)[off:]
		for k < r && row[k] == E(q[off+k]) {
			k++
		}
		if k == r {
			hits[i>>6] |= 1 << (i & 63)
		}
	}
	return hits
}

func (a *arena[E, L]) matches(i int, q []uint64) int { return minhash.Matches(a.row(i), q) }

func (a *arena[E, L]) widen(dst []uint64, i int) []uint64 {
	start := len(dst)
	for _, v := range a.row(i) {
		dst = append(dst, uint64(v))
	}
	for b := 0; b < a.nh/a.rMax; b++ {
		dst[start+b*a.rMax] = uint64(a.leads[b*a.cap+i])
	}
	return dst
}

func (a *arena[E, L]) width() int { return int(unsafe.Sizeof(E(0))) }

// buffer is the unsealed buffer as one value: its entries and what a query
// reads beside them. with grows it; nothing else writes it.
type buffer struct {
	buf  []entry  // unsealed adds, ascending seq
	sigs sigArena // buf's signatures and band leads at the sketch width

	// bufBloom filters the leading signature values of the buffered entries:
	// a query whose leading values all miss cannot band-collide with any of
	// them, so the scan is skipped. with inserts into it while older
	// snapshots' readers probe it (extra bits relative to their prefix only
	// cost false positives). Nil when pruning is disabled.
	bufBloom *bloom.Filter

	// bufMax is the largest size among buffered entries — the buffer's
	// partition upper bound for threshold conversion. It may exceed the
	// largest *live* buffered size when the max entry is tombstoned; a too
	// large bound is merely conservative (Eq. 7 never loses candidates).
	bufMax int
}

// with returns the buffer with e, of signature sig (NumHash values, at any
// width at least the sketch's), appended. It writes only past the published
// length of the entries and the arena (or into fresh arrays once they are
// full), and inserts into the filter before the caller publishes, so a reader
// that can see e also sees its signature, leads and filter bits. The filter
// takes the leading value of every tree (the stride leadTrees probes) masked
// to the sketch backend's lead width (leadMask), as the sealed lead columns
// and the query side cut it, keeping the filter's zero-false-negative
// guarantee across the seal boundary.
func (b buffer) with(e entry, sig minhash.Signature, rMax int, leadMask uint64) buffer {
	for off := 0; b.bufBloom != nil && off < len(sig); off += rMax {
		b.bufBloom.AddHashShared(sig[off] & leadMask)
	}
	b.sigs = b.sigs.with(len(b.buf), sig)
	b.buf = append(b.buf, e)
	b.bufMax = max(b.bufMax, e.size)
	return b
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

// state is everything a snapshot says about the corpus. It is a value:
// every change copies the current snapshot's state, edits the copy and
// publishes it (publishLocked), sharing whatever it did not edit, so
// everything reachable from a published state stays frozen.
type state struct {
	segs   []*segment        // ordered by minSeq
	buffer                   // the unsealed adds
	tombs  map[string]uint64 // key → seq of the clearing Delete/replacing Add

	// shadow, aligned with segs, is false for a segment no tombstone names
	// an entry of, whose candidates then skip the tombstone lookup. Deletes
	// and upserts set bits (tombstone), seals and merges recompute them
	// (shadows), Load derives them exactly; states share the slice.
	shadow []bool

	seq     uint64 // the last mutation the state applies
	domains int    // live domains (tombstoned entries excluded)
}

// snapshot is one published state of the index and its lifetime.
type snapshot struct {
	state

	// gen increments on EVERY publish (Add, Delete, seal, merge): it keys
	// the result cache, so a cached result is served only against the exact
	// state it was computed on.
	gen uint64

	// refs and dead manage the snapshot's lifetime (segio.go): the current
	// pointer holds one reference, each in-flight reader one more, and the
	// exactly-once teardown releases the segments.
	refs atomic.Int64
	dead atomic.Bool
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
	// Readers never take it. keySeq, the writer's index of the current state,
	// maps each live key to the seq of its entry.
	mu     sync.Mutex
	keySeq map[string]uint64

	// compactMu serializes compaction work (the background goroutine, Flush,
	// Compact): at most one segment build is in flight at a time.
	compactMu sync.Mutex

	seals  atomic.Uint64 // completed seal operations
	merges atomic.Uint64 // completed merge operations

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
// a reusable id buffer for the per-segment candidate lists, the buffer's tree
// set, a segment's per-tree sliced-filter answers and the per-partition sets
// they scatter into (views of one word array), the plan of the segment being
// probed, and a batch worker's tally.
type queryScratch struct {
	ids      []uint32
	trees    lshforest.TreeSet
	answers  []uint16 // per tree: the partitions that may hold its leading value
	from     int      // the first tree the gate left to the sliced filter
	treesIn  int      // the trees partTrees found a non-empty answer for
	sets     []lshforest.TreeSet
	setWords []uint64
	plan     []tune.Params
	order    []int // top-k's segment visit order
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
	// forests (NumHash/RMax per segment) into those the partition-sliced
	// leading-value filter named a partition for and the rest, the trees
	// before the lead Bloom's first positive among them; ColumnsProbed /
	// ColumnsSkipped split the (partition, tree) columns their plans probe
	// into those entered and those either filter ruled out.
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
// (start registers the grid once the corpus is accepted) and no compactor.
// opts has its defaults applied and its core.Options validated.
func newIndex(opts Options, keys int) (*Index, error) {
	if opts.SealThreshold < 0 {
		// A buffer length below zero means nothing: every Add would seal.
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
func Build(records []domain.Record, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if err := opts.Options.Validate(); err != nil {
		return nil, err
	}
	x, err := newIndex(opts, len(records))
	if err != nil {
		return nil, err
	}
	st := state{buffer: x.newBuffer()}
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
		recs := make([]domain.Record, 0, len(last))
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
		seg, err := x.newSegment(recs, seqs, func(_ []uint64, i int) []uint64 { return recs[i].Sig })
		if err != nil {
			return nil, err
		}
		st.segs, st.shadow = []*segment{seg}, []bool{false}
		st.seq, st.domains = uint64(len(records)), len(recs)
	}
	x.start(st)
	return x, nil
}

// start is the last step of Build and Load: it registers the band grid the
// buffer scan plans with, publishes st as generation 1 and starts the
// compactor, nudged at once when st's buffer is already due a seal. The index
// is not yet shared, so it takes no lock.
func (x *Index) start(st state) {
	x.bands = tune.ForGrid(x.numTrees(), x.opts.RMax)
	x.publishLocked(st)
	if x.opts.ManualCompaction {
		close(x.done)
		return
	}
	go x.compactor()
	if len(st.buf) >= x.opts.SealThreshold {
		x.kick()
	}
}

func (x *Index) validateRecord(r domain.Record) error {
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

// Len returns the number of live domains (tombstoned entries excluded) in
// the current snapshot.
func (x *Index) Len() int { return x.snap.Load().domains }

// Add inserts or replaces a domain. A record whose key is already indexed
// supersedes the old entry (upsert): readers see either the old or the new
// version, never both. The signature is copied, so the caller keeps
// ownership of r.Sig. Add never blocks queries; concurrent Adds serialize
// on an internal mutex. It reports whether an existing entry was replaced.
func (x *Index) Add(r domain.Record) (replaced bool, err error) {
	if err := x.validateRecord(r); err != nil {
		return false, err
	}

	x.mu.Lock()
	st := x.snap.Load().state
	st.seq++
	_, replaced = x.keySeq[r.Key]
	if replaced {
		// The replacing Add tombstones every older entry of the key (their
		// seqs are < st.seq) while leaving the new entry alive.
		st.tombstone(r.Key)
	} else {
		st.domains++
	}
	x.keySeq[r.Key] = st.seq
	// The arena keeps NumHash values, the prefix every probe uses, cut to the
	// sketch width: a later change to the caller's array is not observable.
	st.buffer = st.with(entry{key: r.Key, size: r.Size, seq: st.seq}, r.Sig[:x.opts.NumHash], x.opts.RMax, x.opts.Sketch.LeadMask())
	old := x.publishLocked(st)
	full := len(st.buf) >= x.opts.SealThreshold
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
	delete(x.keySeq, key)
	st := x.snap.Load().state
	st.seq++
	st.domains--
	st.tombstone(key)
	old := x.publishLocked(st)
	x.mu.Unlock()
	x.releaseSnap(old)
	return true
}

// tombstone records that mutation st.seq clears every older entry of key,
// and sets the shadow bits of the segments that may hold one. The published
// map and bits are copied, never edited in place: readers hold them
// lock-free.
func (st *state) tombstone(key string) {
	tombs := make(map[string]uint64, len(st.tombs)+1)
	for k, v := range st.tombs {
		tombs[k] = v
	}
	tombs[key] = st.seq
	st.tombs = tombs
	st.shadow = shadowKey(st.shadow, st.segs, key)
}

func (x *Index) acquireScratch() *queryScratch {
	s, _ := x.scratch.Get().(*queryScratch)
	if s == nil {
		nt := x.numTrees()
		s = &queryScratch{trees: make(lshforest.TreeSet, lshforest.TreeSetWords(nt)), answers: make([]uint16, nt)}
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
// at containment threshold tStar: those whose signature collides with the
// query under each partition's tuned (b, r). querySize is |Q|, the exact size
// when known or minhash.Signature.Cardinality's estimate (Algorithm 1's
// approx(|Q|)); a querySize ≤ 0 has no candidates. tStar is clamped to
// [0, 1]. A signature shorter than NumHash has no candidates here
// (QueryAppendContext returns core.ErrSignatureLength for it); only its first
// NumHash values are read. It is lock-free against Add, Delete and the
// compactor, and answers from a consistent point-in-time snapshot. Each live
// key appears at most once.
func (x *Index) Query(sig minhash.Signature, querySize int, tStar float64) []string {
	return x.QueryAppend(nil, sig, querySize, tStar)
}

// QueryAppend is Query appending into dst (which may be nil). A serving
// loop reusing dst allocates nothing on a result-cache hit, nor on any query
// with the cache off (ResultCacheSize −1), whatever mix of query sizes and
// thresholds arrives (the package's allocation tests assert both). With the
// cache on, the default, a miss stores its answer in three allocations: the
// entry and its copies of the signature and the keys.
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
// every partition (maxBound/q < t*), ask its lead Bloom whether any tree can
// match (the gate, trees) and skip it when none can, and only then plan its
// partitions' (b, r), ask the sliced filter which columns of the trees the
// gate left can match (partTrees), probe them, and append the keys of the
// candidates the snapshot's tombstones leave alive. Planning after the Bloom
// matters: a plan made for a segment the Bloom then rules out is the whole
// cost of planning on the spot. Under Options.DisablePruning both filters and
// the range check are off — the unpruned reference: every segment is planned
// and every planned column probed. Decisions are counted in t; s lends the
// tree sets, the plan and the id buffer. tStar must already be clamped.
func (x *Index) probeSegment(dst []string, s *queryScratch, t *tally, sn *snapshot, si int,
	sig minhash.Signature, querySize int, tStar float64) []string {
	seg := sn.segs[si]
	pruned := !x.opts.DisablePruning
	rMax, leadMask := x.opts.RMax, x.opts.Sketch.LeadMask()
	if pruned {
		if rangePruned(seg.meta.maxBound, querySize, tStar) {
			t[cSegRangePruned]++
			return dst
		}
		if seg.meta.trees(s, sig, rMax, leadMask) == 0 {
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
	n, cols := x.numTrees(), planned
	if pruned {
		trees, cols = seg.meta.partTrees(s, seg.idx, sig, rMax, leadMask, s.plan)
		n = s.treesIn
	}
	t[cSegProbed]++
	t[cTreesProbed] += uint64(n)
	t[cColsProbed] += uint64(cols)
	t[cColsSkipped] += uint64(planned - cols)
	// No error can come back: sig was length-checked by the caller and the
	// plan was made on this segment.
	s.ids, _ = seg.idx.QueryIDsMaskedAppend(s.ids[:0], sig, s.plan, trees)
	return appendLiveKeys(dst, sn, si, s.ids)
}

// appendLiveKeys appends the keys of segment si's candidate ids that survive
// the snapshot's tombstones, asked only under the segment's shadow bit.
func appendLiveKeys(dst []string, sn *snapshot, si int, ids []uint32) []string {
	seg := sn.segs[si]
	if !sn.shadow[si] {
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
// names the bands that can collide at all (leadTrees): none skips the scan.
// The scan reads only those bands' lead columns, 1 024 entries at a time
// (checking ctx between blocks), compares a band's other r − 1 values on a
// lead hit only, and appends the colliding entries' keys in entry order,
// asking the tombstones only about them. The scan is bound by memory: read
// entry by entry, every band head cost a cache line of its entry's
// signature (the package comment has the measured share). One plan for the
// whole buffer, x.bands.Optimize(bufMax, querySize, tStar), bands a buffered
// domain as a one-partition index would, whatever NumPartitions says, so it
// is a candidate far more often than once sealed: 4 000 OpenData domains and
// 900 queries at 16 partitions answer 88 823 keys buffered against 16 309
// sealed (5.4×). tStar must already be clamped; s lends the tree set, and
// the scan-or-skip decision is counted in t.
func (x *Index) appendBufferMatches(ctx context.Context, dst []string, s *queryScratch, t *tally, sn *snapshot, sig minhash.Signature, querySize int, tStar float64) ([]string, error) {
	n := len(sn.buf)
	if n == 0 {
		return dst, nil
	}
	if rangePruned(sn.bufMax, querySize, tStar) {
		return dst, nil
	}
	rMax := x.opts.RMax
	var trees lshforest.TreeSet // nil = every band: the unpruned reference scan
	if sn.bufBloom != nil {
		if leadTrees(s.trees, sn.bufBloom, sig, rMax, x.opts.Sketch.LeadMask()) == 0 {
			t[cBufBloomSkips]++
			return dst, nil
		}
		trees = s.trees
	}
	t[cBufScans]++
	params := x.bands.Optimize(float64(sn.bufMax), float64(querySize), tStar)
	for lo := 0; lo < n; lo += scanBlock {
		// The buffer is bounded by SealThreshold in steady state but not when
		// the compactor is disabled or behind, so a long scan still honors
		// cancellation.
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		hi := min(lo+scanBlock, n)
		var hits blockHits
		for b := 0; b < params.B; b++ {
			if trees.Has(b) {
				hits = sn.sigs.band(hits, lo, hi, b*rMax, params.R, sig)
			}
		}
		for w, word := range hits {
			for ; word != 0; word &= word - 1 {
				e := &sn.buf[lo+w*64+bits.TrailingZeros64(word)]
				if sn.alive(e.key, e.seq) {
					dst = append(dst, e.key)
				}
			}
		}
	}
	return dst, nil
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
func (x *Index) QueryBatch(queries []domain.BatchQuery, workers int) [][]string {
	rows, _ := x.QueryBatchContext(context.Background(), queries, workers)
	return rows
}

// batchRow is a batch row the result cache did not answer: the normalized
// query, where its answer goes and its cache key.
type batchRow struct {
	domain.BatchQuery
	row        int
	bits, hash uint64
}

// QueryBatchContext is QueryBatch under a context: ctx is checked before
// every row's visit to a segment or the buffer, so a disconnected client or
// expired deadline stops the batch after at most one visit in flight per
// worker instead of burning CPU to completion. On cancellation it returns
// (nil, ctx.Err()); partial rows are discarded, never cached. A trace in ctx
// receives the decisions of all rows added up.
func (x *Index) QueryBatchContext(ctx context.Context, queries []domain.BatchQuery, workers int) ([][]string, error) {
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
func (x *Index) QueryTopK(sig minhash.Signature, querySize, k int) []domain.TopKResult {
	results, _ := x.QueryTopKContext(context.Background(), sig, querySize, k)
	return results
}

// QueryTopKContext is QueryTopK under a context: ctx is checked before each
// segment visit, so a canceled request stops ranking instead of walking the
// remaining segments. On cancellation it returns (nil, ctx.Err()), and the
// partial ranking is never cached.
func (x *Index) QueryTopKContext(ctx context.Context, sig minhash.Signature, querySize, k int) ([]domain.TopKResult, error) {
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
		return append([]domain.TopKResult(nil), hit.ranked...), nil
	}
	q := float64(querySize)
	results := make([]domain.TopKResult, 0, k) // a heap until the end (see keep)
	kth := func() float64 { return results[0].EstContainment }
	s := x.acquireScratch()
	defer x.releaseScratch(s)
	s.order = topkSegOrder(s.order[:0], sn.segs)
	for _, si := range s.order {
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
			rMax, leadMask := x.opts.RMax, x.opts.Sketch.LeadMask()
			if seg.meta.trees(s, sig, rMax, leadMask) == 0 {
				continue
			}
			trees, _ = seg.meta.partTrees(s, seg.idx, sig, rMax, leadMask, nil)
		}
		// Tombstoned candidates are filtered after collection, so a segment a
		// tombstone may reach (its shadow bit) is asked for enough ids to
		// survive the worst-case filtering, any other for k.
		need := k
		if sn.shadow[si] {
			need += len(sn.tombs)
		}
		// No error can come back: sig was length-checked above.
		s.ids, _ = seg.idx.QueryTopKIDsMasked(s.ids[:0], sig, querySize, need, trees)
		for _, id := range s.ids {
			r := domain.TopKResult{Key: seg.idx.Key(id), EstContainment: seg.idx.EstContainment(id, sig, querySize)}
			if keeps(results, k, r) && (!sn.shadow[si] || sn.alive(r.Key, seg.seqs[id])) {
				results = keep(results, k, r)
			}
		}
	}
	if len(sn.buf) > 0 {
		if !x.opts.DisablePruning && len(results) >= k && kth() > containmentBound(sn.bufMax, q) {
			c.tally[cTopKEarlyExits] = 1
		} else {
			// One pass over the arena, each entry scored as a sealed
			// candidate is (core.Index.EstContainment): the width's
			// vector match, through the backend's estimator.
			for i := range sn.buf {
				e := &sn.buf[i]
				eq := sn.sigs.matches(i, sig)
				r := domain.TopKResult{Key: e.key, EstContainment: x.opts.Sketch.ContainmentFromMatch(eq, len(sig), q, float64(e.size))}
				if keeps(results, k, r) && sn.alive(r.Key, e.seq) {
					results = keep(results, k, r)
				}
			}
		}
	}
	slices.SortFunc(results, domain.CompareTopK)
	c.store(sig, querySize, kBits, h, nil, results)
	return results, nil
}

// keeps reports whether keep would add r to ranked: ranked holds fewer than
// k results, or r ranks before the worst of them, the heap's root.
func keeps(ranked []domain.TopKResult, k int, r domain.TopKResult) bool {
	return len(ranked) < k || domain.CompareTopK(r, ranked[0]) < 0
}

// keep adds r to ranked, the best k results so far as a binary heap whose
// root ranked[0] ranks last of them under domain.CompareTopK: below k, r is
// appended and sifted up; at k, r replaces the root and sifts down. So a
// candidate costs one compare with the root (keeps) and a kept one O(log k),
// where a sorted insertion shifts up to k results (0.30 s against sorting's
// 0.01 s at k = n = 40 000 on a Xeon). CompareTopK is a total order over
// distinct keys, so the heap sorted by it equals every candidate sorted and
// truncated to k. keeps(ranked, k, r) must hold.
func keep(ranked []domain.TopKResult, k int, r domain.TopKResult) []domain.TopKResult {
	worse := func(i, j int) bool { return domain.CompareTopK(ranked[i], ranked[j]) > 0 }
	if len(ranked) < k {
		ranked = append(ranked, r)
		for i := len(ranked) - 1; i > 0 && worse(i, (i-1)/2); i = (i - 1) / 2 {
			ranked[i], ranked[(i-1)/2] = ranked[(i-1)/2], ranked[i]
		}
		return ranked
	}
	ranked[0] = r
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < k && worse(c+1, c) {
			c++
		}
		if c >= k || !worse(c, i) {
			return ranked
		}
		ranked[i], ranked[c] = ranked[c], ranked[i]
		i = c
	}
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
	// Seq is the last mutation the snapshot applies. Seals, merges and
	// reloads keep it, so it never goes back.
	Seq uint64 `json:"seq"`
	// Seals and Merges count completed compactor operations.
	Seals  uint64 `json:"seals"`
	Merges uint64 `json:"merges"`
	// Sketch names the signature backend sealed segments store with
	// (core.SketchBackend): "minwise16" unless configured or loaded otherwise.
	Sketch string `json:"sketch"`
	// SignatureBytes is the total stored signature footprint: the sealed
	// segments' stores and the unsealed buffer's signatures, each counted as
	// a segment stores it — every value at the sketch backend's width, and
	// under minwise16 each band lead's high half beside them — which the
	// compact backends shrink.
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
	// the sketch backend's width (entries × width × (NumHash, plus one lead
	// high half per band under minwise16): 576 bytes an entry at m = 256
	// under minwise16, 1 024 under minwise32).
	SignatureBytes int `json:"signature_bytes"`
	// Backing reports where the segment's probe data lives: "heap" or
	// "mmap" (a memory-mapped segment file).
	Backing string `json:"backing"`
	// FileBytes is the segment's on-disk file size; 0 until spilled.
	FileBytes int64 `json:"file_bytes"`
	// ResidentBytes estimates the heap-resident footprint. For mapped
	// segments only the decoded metadata, the planner filters and the column
	// fences count — the signature store and tree columns page in and out on
	// demand.
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
	// ones its partition-sliced leading-value filter named a partition for
	// and the rest, the trees before its lead Bloom's first positive among
	// them: the Bloom only gates the segment (SegmentsBloomPruned).
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

// Stats summarizes the snapshot it pins, with the index's lifetime counters;
// it never blocks writers.
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
		Domains:     sn.domains,
		Segments:    make([]int, len(sn.segs)),
		Buffered:    len(sn.buf),
		Tombstones:  len(sn.tombs),
		Seq:         sn.seq,
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
	w := sn.sigs.width()
	st.SignatureBytes += int64(len(sn.buf)) * int64(w*lshforest.RowLen(x.opts.NumHash, x.opts.RMax, w))
	return st
}
