// Package core implements the LSH Ensemble index — the paper's primary
// contribution (Section 5).
//
// An Index has two constructors: Build from records, and FromParts from
// persisted parts (Decode parses bytes into them; internal/live maps them
// from segment files). FromParts is the one validator of persisted input.
//
// Build partitions the domain records by cardinality (equi-depth by
// default, per Theorem 2), builds one LSH Forest (lshforest) per
// partition, and answers containment queries by converting the containment
// threshold t* into a per-partition Jaccard threshold using the partition's
// upper size bound (Eq. 7 — conservative, so no new false negatives), then
// probing every partition with its own dynamically tuned (b, r)
// configuration (Eq. 26) and unioning the results
// (Partitioned-Containment-Search).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"lshensemble/internal/dedup"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/minhash"
	"lshensemble/internal/par"
	"lshensemble/internal/partition"
	"lshensemble/internal/tune"
)

// Record is one indexable domain: a caller-chosen key, the exact domain
// cardinality, and the MinHash signature of the domain's values.
type Record struct {
	Key  string
	Size int
	Sig  minhash.Signature
}

// PartitionerFunc produces size intervals for the ensemble. The sizes slice
// is the multiset of record cardinalities in arbitrary order.
type PartitionerFunc func(sizes []int, n int) []partition.Partition

// Options configures Build. Zero values select the defaults used in the
// paper's experiments (m = 256 hash functions, trees of depth 8,
// 16 partitions, equi-depth partitioning) over a Minwise32 store.
type Options struct {
	// NumHash is the MinHash signature length m. Default 256.
	NumHash int
	// RMax is the tree depth of each partition's LSH forest; the tuner may
	// choose any r ≤ RMax and b ≤ NumHash/RMax. Default 8.
	RMax int
	// NumPartitions is the number of cardinality partitions n. Default 16.
	// With NumPartitions = 1 the ensemble degenerates into the paper's
	// "Baseline" (a single dynamically tuned MinHash LSH).
	NumPartitions int
	// Partitioner chooses the partitioning strategy. Default
	// partition.EquiDepth (optimal for power-law distributions).
	Partitioner PartitionerFunc
	// Sketch selects the stored signature representation (see SketchBackend).
	// Default Minwise32; Minwise64 is the paper's full-width configuration,
	// and the b-bit backends trade estimation accuracy for a smaller store.
	Sketch SketchBackend
}

// WithDefaults returns o with zero fields replaced by the defaults (the same
// normalization Build applies). Layered indexes (internal/live) use it so
// every segment build sees identical effective options.
func (o Options) WithDefaults() Options {
	if o.NumHash == 0 {
		o.NumHash = 256
	}
	if o.RMax == 0 {
		o.RMax = 8
	}
	if o.NumPartitions == 0 {
		o.NumPartitions = 16
	}
	if o.Partitioner == nil {
		o.Partitioner = partition.EquiDepth
	}
	if o.Sketch == SketchUnset {
		o.Sketch = Minwise32
	}
	return o
}

// table returns the process-wide (b, r) table of the options' banding grid
// (b ≤ NumHash/RMax trees, r ≤ RMax depth). The options must be valid.
func (o Options) table() *tune.Table { return tune.ForGrid(o.NumHash/o.RMax, o.RMax) }

// Validate reports whether the (already defaulted) options are usable.
func (o Options) Validate() error {
	if o.NumHash < 1 {
		return fmt.Errorf("core: NumHash %d < 1", o.NumHash)
	}
	if o.RMax < 1 || o.RMax > o.NumHash {
		return fmt.Errorf("core: RMax %d out of range [1, %d]", o.RMax, o.NumHash)
	}
	if o.NumPartitions < 1 {
		return fmt.Errorf("core: NumPartitions %d < 1", o.NumPartitions)
	}
	if !o.Sketch.Valid() {
		return fmt.Errorf("core: unknown sketch backend %s", o.Sketch)
	}
	return nil
}

// part is one cardinality partition with its LSH Forest, which answers any
// (b, r) the tuner picks per query.
type part struct {
	lower, upper int
	forest       *lshforest.Forest
}

// sigLoc locates an id's stored signature: the partition holding it and its
// slot inside that partition's forest. Eight bytes per id replace
// the 24-byte slice headers (plus retained caller slices) the pre-backend
// design kept per id, and work for every store width — a narrow store has no
// []uint64 to view.
type sigLoc struct {
	part uint32
	slot uint32
}

// Index is a built LSH Ensemble. It is immutable once Build, Decode or
// FromParts has returned it, and safe for concurrent queries; internal/live
// layers the mutable index on top.
type Index struct {
	opts  Options
	keys  []string
	sizes []int
	locs  []sigLoc // per id: which partition forest and slot stores its signature
	parts []part
	opt   *tune.Table // shared by every index over the same (NumHash/RMax, RMax) grid

	// scratch pools *queryScratch values so steady-state queries allocate
	// nothing: dedup uses a generation-stamped visited array instead of a
	// fresh map.
	scratch sync.Pool
}

// queryScratch is the per-query working memory recycled through
// Index.scratch: a generation-stamped visited set for candidate dedup, the
// per-partition plan, and the probe callback.
// The callback is allocated once per scratch (not per probe): it reaches the
// forests through the width-erased store interface, which defeats escape
// analysis, so a closure built inside probe would heap-allocate on every
// partition probe.
type queryScratch struct {
	seen dedup.Set
	plan []tune.Params     // banding decisions of the query being served
	last []tune.Params     // top-k ladder: the (b, r) each partition was last probed with
	dst  []uint32          // collector target while a probe is running
	emit func(uint32) bool // persistent probe callback appending into dst
}

// acquireScratch fetches (or creates) a scratch sized for the current
// corpus and starts a fresh dedup generation.
func (x *Index) acquireScratch() *queryScratch {
	s, _ := x.scratch.Get().(*queryScratch)
	if s == nil {
		sc := &queryScratch{}
		sc.emit = func(id uint32) bool {
			if sc.seen.TryMark(id) {
				sc.dst = append(sc.dst, id)
			}
			return true
		}
		s = sc
	}
	s.seen.Reset(len(x.keys))
	return s
}

func (x *Index) releaseScratch(s *queryScratch) {
	x.scratch.Put(s)
}

// ErrEmpty is returned by Build when no records are given.
var ErrEmpty = errors.New("core: no records to index")

// ErrSignatureLength is returned by every query entry point handed a query
// signature shorter than Options.NumHash — the probe reads the leading values
// of all NumHash/RMax trees, so a short signature cannot be served (Build
// rejects short record signatures the same way).
var ErrSignatureLength = errors.New("core: query signature shorter than NumHash")

// CheckQuerySig reports ErrSignatureLength for a query signature the probe
// would run off the end of. Layered indexes (internal/live) apply the same
// check before they fan a query out.
func (o Options) CheckQuerySig(sig minhash.Signature) error {
	if len(sig) < o.NumHash {
		return fmt.Errorf("%w: length %d, NumHash %d", ErrSignatureLength, len(sig), o.NumHash)
	}
	return nil
}

// Build constructs the ensemble over the records. Every record signature
// must be at least opts.NumHash long and record sizes must be positive.
func Build(records []Record, opts Options) (*Index, error) {
	opts = opts.WithDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, ErrEmpty
	}
	sizes := make([]int, len(records))
	for i, r := range records {
		if r.Size <= 0 {
			return nil, fmt.Errorf("core: record %q has non-positive size %d", r.Key, r.Size)
		}
		if len(r.Sig) < opts.NumHash {
			return nil, fmt.Errorf("core: record %q signature length %d < NumHash %d",
				r.Key, len(r.Sig), opts.NumHash)
		}
		sizes[i] = r.Size
	}
	parts := opts.Partitioner(sizes, opts.NumPartitions)
	if err := partition.Validate(parts, sizes); err != nil {
		return nil, fmt.Errorf("core: partitioner produced invalid partitions: %w", err)
	}
	idx := &Index{
		opts:  opts,
		keys:  make([]string, 0, len(records)),
		sizes: make([]int, 0, len(records)),
		locs:  make([]sigLoc, 0, len(records)),
		parts: make([]part, len(parts)),
		opt:   opts.table(),
	}
	// Route every record (serial — a binary search per record; the validated
	// partitions cover every size), grouping member ids per partition, then
	// build each partition's forest from its members. Partitions own
	// disjoint forests, so the builds fan out over them; each Build also fans
	// its tree sorts out.
	members := make([][]uint32, len(parts))
	for id, r := range records {
		idx.keys = append(idx.keys, r.Key)
		idx.sizes = append(idx.sizes, r.Size)
		pi := sort.Search(len(parts), func(i int) bool { return r.Size <= parts[i].Upper })
		idx.locs = append(idx.locs, sigLoc{part: uint32(pi), slot: uint32(len(members[pi]))})
		members[pi] = append(members[pi], uint32(id))
	}
	par.Drain(len(parts), 0, func(_, pi int) {
		ids := members[pi]
		idx.parts[pi] = part{
			lower: parts[pi].Lower,
			upper: parts[pi].Upper,
			forest: lshforest.Build(opts.NumHash, opts.RMax, opts.Sketch.WidthBytes(), ids,
				func(i int) []uint64 { return records[ids[i]].Sig }),
		}
	})
	return idx, nil
}

// Len returns the number of indexed domains.
func (x *Index) Len() int { return len(x.keys) }

// NumPartitions returns the number of partitions actually built (may be
// fewer than requested when there are few distinct sizes).
func (x *Index) NumPartitions() int { return len(x.parts) }

// Options returns the effective build options.
func (x *Index) Options() Options { return x.opts }

// Key returns the key of the domain with the given internal id.
func (x *Index) Key(id uint32) string { return x.keys[id] }

// Size returns the exact cardinality of the domain with the given id.
func (x *Index) Size(id uint32) int { return x.sizes[id] }

// Sketch returns the backend the index stores signatures with.
func (x *Index) Sketch() SketchBackend { return x.opts.Sketch }

// AppendSignature appends the stored signature of the domain with the given
// id to dst, widened to NumHash full-width slots: the original hash values
// under Minwise64, the stored truncations (zero-extended) under a b-bit
// backend — truncation is idempotent, so building from the result under the
// same backend is lossless. Layered indexes (internal/live) use it to carry
// records into a merged segment without re-sketching, all into one arena.
func (x *Index) AppendSignature(dst []uint64, id uint32) minhash.Signature {
	l := x.locs[id]
	return x.parts[l.part].forest.AppendSigWidened(dst, int(l.slot))
}

// SigMatches returns the number of signature slots where the stored domain
// agrees with the query signature under the backend's truncation — the
// allocation-free agreement count EstContainment converts into a score. sig
// must be at least NumHash long (extra slots are ignored).
func (x *Index) SigMatches(id uint32, sig minhash.Signature) int {
	l := x.locs[id]
	return x.parts[l.part].forest.MatchCount(int(l.slot), sig)
}

// EstContainment estimates the containment of the query domain (signature
// sig, cardinality querySize) in the stored domain id, through the backend's
// bias-corrected Jaccard estimate and the paper's Eq. 6 conversion. Under
// Minwise64 the result is float-identical to
// sig.Containment(storedSig, querySize, Size(id)).
func (x *Index) EstContainment(id uint32, sig minhash.Signature, querySize int) float64 {
	eq := x.SigMatches(id, sig)
	return x.opts.Sketch.ContainmentFromMatch(eq, x.opts.NumHash, float64(querySize), float64(x.sizes[id]))
}

// SignatureBytes returns the total byte size of the stored signature data —
// Len() × NumHash × the backend's per-slot width. This is the quantity the
// compact sketch backends shrink, reported by /stats and the experiments.
func (x *Index) SignatureBytes() int {
	n := 0
	for i := range x.parts {
		n += x.parts[i].forest.StoreLenBytes()
	}
	return n
}

// PartitionBounds returns the (lower, upper, count) of each partition, for
// inspection and experiments.
func (x *Index) PartitionBounds() []partition.Partition {
	out := make([]partition.Partition, len(x.parts))
	for i, p := range x.parts {
		out[i] = partition.Partition{Lower: p.lower, Upper: p.upper, Count: p.forest.Len()}
	}
	return out
}

// QueryIDsAppend runs Partitioned-Containment-Search and appends to dst
// (which may be nil) the internal ids of all candidate domains: those whose
// signature collides with the query under each partition's tuned (b, r).
// querySize is |Q| (use the exact size when known, or
// minhash.Signature.Cardinality's estimate — Algorithm 1's approx(|Q|)).
// tStar is the containment threshold t*. It returns ErrSignatureLength if
// sig is shorter than NumHash. Reusing dst across queries makes the
// steady-state query path allocation-free.
//
// Deprecated: no product path calls it — internal/live probes through
// PlanPartitions and QueryIDsMaskedAppend. It remains as the reference the
// experiments' tests check the live index against and for the benchmark
// ladder's static-index rung, and goes with that rung.
func (x *Index) QueryIDsAppend(dst []uint32, sig minhash.Signature, querySize int, tStar float64) ([]uint32, error) {
	if err := x.opts.CheckQuerySig(sig); err != nil {
		return dst, err
	}
	if querySize <= 0 || len(x.keys) == 0 {
		return dst, nil
	}
	s := x.acquireScratch()
	dst = x.queryInto(dst, s, sig, querySize, tStar)
	x.releaseScratch(s)
	return dst, nil
}

// queryInto plans the query into the scratch's reused plan slice and probes
// every tree of the planned partitions, appending candidate ids to dst. The
// single query and every batch row go through it; PlanPartitions +
// QueryIDsMaskedAppend are the same two halves exported, and a top-k rung is
// the same pair with the rung's repeats struck from the plan.
func (x *Index) queryInto(dst []uint32, s *queryScratch, sig minhash.Signature, querySize int, tStar float64) []uint32 {
	s.plan = x.PlanPartitions(s.plan[:0], querySize, tStar)
	return x.probe(dst, s, sig, s.plan, nil)
}

// PlanPartitions appends one tune.Params per partition to dst: the banding
// decision of every query path for (querySize, tStar), with the zero Params
// (B == 0) marking partitions that are skipped — empty ones, and those where
// no domain can reach the threshold (containment is at most x/q ≤ u/q). A
// plan depends only on (querySize, tStar) and the immutable partition
// bounds, and costs two atomic loads a partition (tune.Table), so a layered
// planner (internal/live) makes one per probe into its own scratch and
// replays it with QueryIDsMaskedAppend for results byte-identical to
// QueryIDsAppend.
func (x *Index) PlanPartitions(dst []tune.Params, querySize int, tStar float64) []tune.Params {
	tStar = max(0, min(tStar, 1))
	q := float64(querySize)
	for pi := range x.parts {
		p := &x.parts[pi]
		u := float64(p.upper)
		var params tune.Params
		if p.forest.Len() > 0 && !(tStar > 0 && u/q < tStar) {
			params = x.opt.Optimize(u, q, tStar)
		}
		dst = append(dst, params)
	}
	return dst
}

// probe probes every partition the plan does not skip with its planned
// (b, r), partition pi restricted to the trees in trees[pi] (nil = every tree
// of every partition) and not entered at all when that set is empty, appending
// candidate ids to dst. Partitions hold disjoint id sets, so the scratch's
// visited array only ever collapses the multiple trees of one forest reporting
// the same id. The plan, and a non-nil trees, have one entry per partition.
func (x *Index) probe(dst []uint32, s *queryScratch, sig minhash.Signature, plan []tune.Params, trees []lshforest.TreeSet) []uint32 {
	s.dst = dst
	for pi, p := range plan {
		if p.B == 0 {
			continue
		}
		var set lshforest.TreeSet
		if trees != nil {
			if set = trees[pi]; set.Empty() {
				continue
			}
		}
		x.parts[pi].forest.Query(sig, p.B, p.R, set, s.emit)
	}
	dst = s.dst
	s.dst = nil
	return dst
}

// QueryIDsPlannedAppend is QueryIDsAppend with the per-partition banding
// decisions precomputed by PlanPartitions on this same index: partitions
// whose plan entry is the zero Params are skipped, the rest are probed with
// the planned (b, r). Given a plan built for (querySize, tStar), the
// appended ids are byte-identical to QueryIDsAppend(dst, sig, querySize,
// tStar). The plan must have exactly one entry per partition.
func (x *Index) QueryIDsPlannedAppend(dst []uint32, sig minhash.Signature, plan []tune.Params) ([]uint32, error) {
	return x.QueryIDsMaskedAppend(dst, sig, plan, nil)
}

// QueryIDsMaskedAppend is QueryIDsPlannedAppend probing, in partition pi, only
// the trees in trees[pi] (nil = every tree of every partition). The sets are
// the caller's proof of which (partition, tree) columns can match: given sets
// where trees[pi] holds every tree t < plan[pi].B whose leading column in
// partition pi contains sig[t·RMax] (under the backend's truncation), the
// appended ids are byte-identical to the unrestricted probe's — see
// lshforest.TreeSet. internal/live fills them from the segment's two
// leading-value filters, which err only towards more columns.
func (x *Index) QueryIDsMaskedAppend(dst []uint32, sig minhash.Signature, plan []tune.Params, trees []lshforest.TreeSet) ([]uint32, error) {
	if err := x.opts.CheckQuerySig(sig); err != nil {
		return dst, err
	}
	if len(plan) != len(x.parts) || (trees != nil && len(trees) != len(x.parts)) {
		return dst, fmt.Errorf("core: plan covers %d partitions and %d tree sets, index has %d", len(plan), len(trees), len(x.parts))
	}
	if len(x.keys) == 0 {
		return dst, nil
	}
	s := x.acquireScratch()
	dst = x.probe(dst, s, sig, plan, trees)
	x.releaseScratch(s)
	return dst, nil
}

// EachTreeLeading invokes fn once per non-empty (partition, tree) pair with
// the tree's sorted column of leading hash values — a view that must not be
// mutated (a widened copy under the narrow backends). Any probe of that tree
// at any depth r ≥ 1 matches an entry only if the query's leading value occurs
// in the column, so segment-level planners (internal/live) build their
// collision filters from exactly these columns.
func (x *Index) EachTreeLeading(fn func(part, tree int, col []uint64)) {
	for i := range x.parts {
		f := x.parts[i].forest
		if f.Len() == 0 {
			continue
		}
		for t := 0; t < f.BMax(); t++ {
			fn(i, t, f.TreeLeadingColumn(t))
		}
	}
}

// --- serialization ---

// Index encodings:
//
//	"LSHE" (Minwise64, unchanged since PR 1 — golden-bytes compatible):
//	  magic | numHash | rMax | numPartitions | nKeys | keys | parts
//	"LSE2" (any backend): magic | backendTag u32 | same layout
var (
	indexMagic   = [4]byte{'L', 'S', 'H', 'E'}
	indexMagicV2 = [4]byte{'L', 'S', 'E', '2'}
)

// ErrCorrupt reports a malformed index encoding.
var ErrCorrupt = errors.New("core: corrupt index encoding")

// AppendBinary appends the index's binary encoding to buf. The (b, r) table
// is not part of it (it belongs to the process, not the index). A Minwise64
// index emits the legacy "LSHE" encoding byte-identically; other backends
// emit "LSE2" with an explicit backend tag.
func (x *Index) AppendBinary(buf []byte) []byte {
	if x.opts.Sketch == Minwise64 {
		buf = append(buf, indexMagic[:]...)
	} else {
		buf = append(buf, indexMagicV2[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, x.opts.Sketch.Tag())
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.NumHash))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.RMax))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.NumPartitions))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x.keys)))
	for i, k := range x.keys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x.sizes[i]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x.parts)))
	for i := range x.parts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x.parts[i].lower))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x.parts[i].upper))
		buf = x.parts[i].forest.AppendBinary(buf)
	}
	return buf
}

// Decode reconstructs an index from buf (produced by AppendBinary) and
// returns any trailing bytes. It only parses; FromParts validates what it
// parsed. Every refusal wraps ErrCorrupt.
func Decode(buf []byte) (*Index, []byte, error) {
	if len(buf) < 4 {
		return nil, buf, ErrCorrupt
	}
	sketch := Minwise64
	switch [4]byte(buf[:4]) {
	case indexMagic:
		buf = buf[4:]
	case indexMagicV2:
		if len(buf) < 8 {
			return nil, buf, ErrCorrupt
		}
		sb, ok := SketchBackendFromTag(binary.LittleEndian.Uint32(buf[4:]))
		if !ok {
			return nil, buf, ErrCorrupt
		}
		sketch = sb
		buf = buf[8:]
	default:
		return nil, buf, ErrCorrupt
	}
	if len(buf) < 16 {
		return nil, buf, ErrCorrupt
	}
	opts := Options{
		NumHash:       int(binary.LittleEndian.Uint32(buf)),
		RMax:          int(binary.LittleEndian.Uint32(buf[4:])),
		NumPartitions: int(binary.LittleEndian.Uint32(buf[8:])),
		Sketch:        sketch,
	}
	nKeys := int(binary.LittleEndian.Uint32(buf[12:]))
	buf = buf[16:]
	var keys []string
	var sizes []int
	for i := 0; i < nKeys; i++ {
		if len(buf) < 4 {
			return nil, buf, ErrCorrupt
		}
		kl := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < kl+8 {
			return nil, buf, ErrCorrupt
		}
		keys = append(keys, string(buf[:kl]))
		sizes = append(sizes, int(binary.LittleEndian.Uint64(buf[kl:])))
		buf = buf[kl+8:]
	}
	if len(buf) < 4 {
		return nil, buf, ErrCorrupt
	}
	np := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	var views []PartView
	for i := 0; i < np; i++ {
		if len(buf) < 16 {
			return nil, buf, ErrCorrupt
		}
		v := PartView{
			Lower: int(binary.LittleEndian.Uint64(buf)),
			Upper: int(binary.LittleEndian.Uint64(buf[8:])),
		}
		f, rest, err := lshforest.DecodeForest(buf[16:])
		if err != nil {
			return nil, rest, fmt.Errorf("core: partition %d: %v: %w", i, err, ErrCorrupt)
		}
		v.Forest, buf = f, rest
		views = append(views, v)
	}
	x, err := FromParts(opts, keys, sizes, views)
	if err != nil {
		return nil, buf, err
	}
	return x, buf, nil
}

// checkBounds holds persisted partitions to what Build guarantees
// (partition.Validate): bounds ordered and non-overlapping, every record's
// size inside its partition's. The query planner and downstream consumers
// (the live planner's maxBound metadata) rely on it, so FromParts refuses an
// index that breaks it. It needs the locs table.
func (x *Index) checkBounds() error {
	for i := range x.parts {
		p := &x.parts[i]
		if p.lower > p.upper || (i > 0 && x.parts[i-1].upper >= p.lower) {
			return fmt.Errorf("core: partition %d bounds [%d, %d] out of order: %w",
				i, p.lower, p.upper, ErrCorrupt)
		}
	}
	for id, loc := range x.locs {
		p := &x.parts[loc.part]
		if s := x.sizes[id]; s < p.lower || s > p.upper {
			return fmt.Errorf("core: record %d size %d outside partition bounds [%d, %d]: %w",
				id, s, p.lower, p.upper, ErrCorrupt)
		}
	}
	return nil
}

// rebuildLocs reconstructs the id → (partition, slot) table from the
// partition forests' insertion-order id lists, rejecting out-of-range,
// repeated or missing ids.
func (x *Index) rebuildLocs() error {
	const noPart = ^uint32(0)
	x.locs = make([]sigLoc, len(x.keys))
	for i := range x.locs {
		x.locs[i].part = noPart
	}
	for pi := range x.parts {
		for slot, id := range x.parts[pi].forest.IDs() {
			if int(id) >= len(x.locs) {
				return fmt.Errorf("core: forest contains out-of-range id %d: %w", id, ErrCorrupt)
			}
			if x.locs[id].part != noPart {
				return fmt.Errorf("core: forest entry id %d repeats: %w", id, ErrCorrupt)
			}
			x.locs[id] = sigLoc{part: uint32(pi), slot: uint32(slot)}
		}
	}
	for i := range x.locs {
		if x.locs[i].part == noPart {
			return fmt.Errorf("core: index missing signature for id %d: %w", i, ErrCorrupt)
		}
	}
	return nil
}
