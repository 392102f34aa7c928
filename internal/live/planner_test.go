package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"lshensemble/internal/core"
	"lshensemble/internal/datagen"
	"lshensemble/internal/domain"
	"lshensemble/internal/minhash"
	"lshensemble/internal/tune"
	"lshensemble/internal/xrand"
)

// plannerOpts is liveOpts with the planner fully enabled (the default) and
// a result cache large enough that the equivalence tests' repeat rounds
// actually hit it (smaller caches are exercised by the eviction tests).
func plannerOpts() Options {
	o := liveOpts()
	o.ResultCacheSize = 2048
	return o
}

// unprunedOpts disables every planner feature: the reference configuration
// the equivalence tests compare against.
func unprunedOpts() Options {
	o := liveOpts()
	o.DisablePruning = true
	o.ResultCacheSize = -1
	return o
}

// churn applies the same randomized add/delete/seal/merge schedule to every
// given index so their logical contents stay identical.
func churn(t *testing.T, recs []domain.Record, idxs ...*Index) {
	t.Helper()
	apply := func(f func(x *Index)) {
		for _, x := range idxs {
			f(x)
		}
	}
	// Seed a first segment, buffer more, delete a spread, seal, re-add some
	// deleted keys (exercising replace tombstones), and merge.
	apply(func(x *Index) {
		for _, r := range recs[:150] {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		x.Flush()
		for _, r := range recs[150:260] {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		for i := 5; i < 250; i += 11 {
			x.Delete(recs[i].Key)
		}
		x.Flush()
		for _, r := range recs[260:300] {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		for i := 5; i < 120; i += 22 {
			if _, err := x.Add(recs[i]); err != nil { // resurrect some deleted keys
				t.Fatal(err)
			}
		}
		x.Flush()
		for x.mergeIfCrowded() {
		}
	})
}

// eachGeometry runs f on a planned and an unpruned index put through the same
// churn, once per partition count — 1 (the sliced filter has one bit to
// set), 16 (one bit each) and 40 (partitions fold onto shared bits; the other
// tests run at 4) — and per sketch backend: the narrower the stored leading
// values, the less both leading-value filters rule out, and the answers must
// still agree.
func eachGeometry(t *testing.T, seed uint64, f func(t *testing.T, recs []domain.Record, planned, plain *Index)) {
	recs := fixture(t, 300, seed)
	for _, parts := range []int{1, 16, 40} {
		for _, sb := range append([]core.SketchBackend{core.Minwise64}, narrowBackends...) {
			t.Run(fmt.Sprintf("parts=%d/%s", parts, sb), func(t *testing.T) {
				po, uo := plannerOpts(), unprunedOpts()
				po.NumPartitions, uo.NumPartitions = parts, parts
				po.Sketch, uo.Sketch = sb, sb
				planned, err := New(po)
				if err != nil {
					t.Fatal(err)
				}
				defer planned.Close()
				plain, err := New(uo)
				if err != nil {
					t.Fatal(err)
				}
				defer plain.Close()
				churn(t, recs, planned, plain)
				most := 0
				for _, seg := range planned.snap.Load().segs {
					most = max(most, seg.idx.NumPartitions())
				}
				if parts == 40 && most <= 16 {
					t.Fatalf("fixture: the widest segment has %d partitions, none folds", most)
				}
				f(t, recs, planned, plain)
			})
		}
	}
}

// TestPlannedEquivalentToUnprunedUnderChurn is the tentpole equivalence
// guarantee: with pruning and the result cache enabled, every query returns
// byte-identical results (same keys, same order) to the fully disabled
// configuration, across a randomized churn schedule, for repeated queries
// (cache hits) included.
func TestPlannedEquivalentToUnprunedUnderChurn(t *testing.T) {
	eachGeometry(t, 7, plannedEquivalentUnderChurn)
}

func plannedEquivalentUnderChurn(t *testing.T, recs []domain.Record, planned, plain *Index) {
	thresholds := []float64{0.0, 0.25, 0.5, 0.75, 0.9, 1.0}
	check := func(round int) {
		for qi := 0; qi < len(recs); qi += 3 {
			r := recs[qi]
			for _, tStar := range thresholds {
				want := plain.Query(r.Sig, r.Size, tStar)
				got := planned.Query(r.Sig, r.Size, tStar)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("round %d query %d t*=%.2f: planned %v != unpruned %v",
						round, qi, tStar, got, want)
				}
			}
		}
	}
	check(0)
	check(1) // every repeat is a result-cache hit on the planned index
	st := planned.Stats()
	if st.Planner.ResultHits == 0 {
		t.Fatal("second query round produced no result-cache hits")
	}
	// The segment decisions of rounds 0 and 1 as recorded when the range
	// decision was read off a whole memoized plan, before the Bloom was asked:
	// a compare against maxBound ahead of the Bloom decides each segment the
	// same way. The geometry does not enter, only the backend's lead width:
	// minwise16's 32-bit leads decide as minwise32's.
	wantSegmentDecisions(t, st.Planner, map[core.SketchBackend][3]uint64{
		core.Minwise64: {1162, 31, 673}, core.Minwise32: {1162, 31, 673},
		core.Minwise16: {1162, 31, 673},
	}[planned.opts.Sketch])
	if ref := plain.Stats().Planner; ref.ColumnsProbed == 0 || ref.ColumnsSkipped != 0 {
		t.Fatalf("the unpruned reference skipped columns: %+v", ref)
	}
	// One partition leaves the sliced filter nothing to tell apart, but the
	// Bloom's skipped trees are skipped columns too.
	if planned.opts.Sketch == core.Minwise64 && st.Planner.ColumnsSkipped == 0 {
		t.Fatalf("full-width leading values and no column was ever ruled out: %+v", st.Planner)
	}

	// More churn invalidates the result cache; equivalence must survive it.
	planned.Compact()
	plain.Compact()
	check(2)
	check(3)
}

// wantSegmentDecisions fails unless p counts {probed, range-pruned,
// Bloom-pruned} segments as want does.
func wantSegmentDecisions(t *testing.T, p PlannerStats, want [3]uint64) {
	t.Helper()
	if got := [3]uint64{p.SegmentsProbed, p.SegmentsRangePruned, p.SegmentsBloomPruned}; got != want {
		t.Fatalf("segments {probed, range-pruned, Bloom-pruned} = %v, want %v", got, want)
	}
}

// TestRangeCheckIsThePlansSkip is the invariant probeSegment's range check
// rests on: for every segment of every geometry, every threshold and query
// sizes from 1 to past the segment's bound and across each threshold's
// boundary maxBound/t*, the one compare against maxBound says "pruned" exactly
// when a plan of the segment skips every partition.
func TestRangeCheckIsThePlansSkip(t *testing.T) {
	eachGeometry(t, 18, func(t *testing.T, _ []domain.Record, planned, _ *Index) {
		var plan []tune.Params
		pruned, kept := 0, 0
		for si, seg := range planned.snap.Load().segs {
			u := seg.meta.maxBound
			var sizes []int
			for q := 1; q <= u+2; q += max(1, u/256) {
				sizes = append(sizes, q)
			}
			for _, q := range []int{u, 2 * u, 20 * u} { // u/t* for the thresholds below
				sizes = append(sizes, q-1, q, q+1)
			}
			for _, tStar := range []float64{0, 0.05, 0.5, 1} {
				for _, q := range sizes {
					plan = seg.idx.PlanPartitions(plan[:0], q, tStar)
					skipsAll := !slices.ContainsFunc(plan, func(p tune.Params) bool { return p.B != 0 })
					if got := rangePruned(u, q, tStar); got != skipsAll {
						t.Fatalf("segment %d (maxBound %d) q=%d t*=%v: range check says %v, the plan skips every partition: %v", si, u, q, tStar, got, skipsAll)
					}
					if skipsAll {
						pruned++
					} else {
						kept++
					}
				}
			}
		}
		if pruned == 0 || kept == 0 {
			t.Fatalf("fixture is one-sided: %d pruned, %d kept", pruned, kept)
		}
	})
}

// TestBatchPlannedEquivalentToUnpruned runs the same equivalence through
// the batch engine, including repeated batches (result-cache hits).
func TestBatchPlannedEquivalentToUnpruned(t *testing.T) {
	eachGeometry(t, 8, batchPlannedEquivalent)
}

func batchPlannedEquivalent(t *testing.T, recs []domain.Record, planned, plain *Index) {
	queries := make([]domain.BatchQuery, 0, 120)
	for qi := 0; qi < 340; qi += 3 {
		r := recs[qi%len(recs)]
		queries = append(queries, domain.BatchQuery{Sig: r.Sig, Size: r.Size, Threshold: float64(qi%5) * 0.2})
	}
	queries = append(queries, domain.BatchQuery{Sig: recs[0].Sig, Size: 0, Threshold: 0.5}) // invalid → nil row
	for round := 0; round < 3; round++ {
		want := plain.QueryBatch(queries, 4)
		got := planned.QueryBatch(queries, 4)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: batch rows diverge", round)
		}
	}
}

// TestPruningActuallyFires ensures the equivalence above is not vacuous:
// with segments built from disjoint value pools, the Bloom pre-test must
// rule most of them out.
func TestPruningActuallyFires(t *testing.T) {
	opts := plannerOpts()
	opts.ResultCacheSize = -1 // count real fan-outs, not cache hits
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Four segments over disjoint hash-value pools: self-queries from one
	// pool cannot collide in the other three.
	var probes [][]domain.Record
	for seg := 0; seg < 4; seg++ {
		recs := synthRecords(60, uint64(seg+1), fmt.Sprintf("p%d", seg), 50, 500)
		for _, r := range recs {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		x.Flush()
		probes = append(probes, recs)
	}
	if n := len(x.Stats().Segments); n != 4 {
		t.Fatalf("expected 4 segments, got %d", n)
	}
	for _, recs := range probes {
		for _, r := range recs[:20] {
			x.Query(r.Sig, r.Size, 0.5)
		}
	}
	st := x.Stats().Planner
	pruned := st.SegmentsBloomPruned + st.SegmentsRangePruned
	if total := pruned + st.SegmentsProbed; total == 0 || pruned*2 < total {
		t.Fatalf("pruning barely fires: probed %d, range-pruned %d, bloom-pruned %d",
			st.SegmentsProbed, st.SegmentsRangePruned, st.SegmentsBloomPruned)
	}
}

// TestTopKPlannedEquivalentToUnpruned: top-k with early termination must
// match the exhaustive visit, across thresholds of k and churn.
func TestTopKPlannedEquivalentToUnpruned(t *testing.T) {
	eachGeometry(t, 9, topKPlannedEquivalent)
}

func topKPlannedEquivalent(t *testing.T, recs []domain.Record, planned, plain *Index) {
	for qi := 0; qi < len(recs); qi += 7 {
		r := recs[qi]
		for _, k := range []int{1, 3, 10, 50} {
			want := plain.QueryTopK(r.Sig, r.Size, k)
			got := planned.QueryTopK(r.Sig, r.Size, k)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("query %d k=%d: planned %v != unpruned %v", qi, k, got, want)
			}
		}
	}
}

// TestTopKEarlyTermination ensures the size-descending visit order actually
// short-circuits when segment size ranges are far apart.
func TestTopKEarlyTermination(t *testing.T) {
	opts := plannerOpts()
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	big := synthRecords(80, 7, "big", 2000, 4000)
	small := synthRecords(80, 8, "small", 4, 16)
	for _, r := range big {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	for _, r := range small {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	// A big self-query scores 1.0 in the big segment (j = 1, x = q); the
	// small segment's cap ((16/2000+1)/2 ≈ 0.5) cannot displace it, so the
	// visit stops after the big segment. Synthetic signatures only collide
	// with themselves, so k = 1 is the largest k the corpus can fill.
	res := x.QueryTopK(big[0].Sig, big[0].Size, 1)
	if len(res) != 1 || res[0].Key != big[0].Key {
		t.Fatalf("self top-k query: %v", res)
	}
	if got := x.Stats().Planner.TopKEarlyExits; got == 0 {
		t.Fatal("top-k did not terminate early despite disjoint size ranges")
	}
}

// TestTombstonesDropOnIncrementalMerge (satellite): the exact per-key sweep
// runs on incremental merges, so tombstones whose entries are merged away
// disappear without a full Compact — even when older segments pin the global
// minimum sequence number, which a bound on that minimum could not see past.
func TestTombstonesDropOnIncrementalMerge(t *testing.T) {
	opts := plannerOpts()
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := fixture(t, 160, 10)
	// Segment 1: old entries that stay alive (they hold the minimum seq).
	for _, r := range recs[:40] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	// Segments 2..4: newer entries, many of which we then delete.
	for seg := 0; seg < 3; seg++ {
		for _, r := range recs[40+40*seg : 80+40*seg] {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		x.Flush()
	}
	for _, r := range recs[40:160] {
		x.Delete(r.Key)
	}
	before := x.Stats().Tombstones
	if before == 0 {
		t.Fatal("fixture produced no tombstones")
	}
	// Incremental merges only — no full Compact. The deleted entries live
	// in the merged segments, so their tombstones stop shadowing anything.
	for x.mergeIfCrowded() {
	}
	if x.Stats().Merges == 0 {
		t.Fatal("no merge ran; raise the segment count")
	}
	after := x.Stats().Tombstones
	if after >= before {
		t.Fatalf("tombstones did not drop on incremental merge: %d -> %d", before, after)
	}
}

// TestLoadV1SnapshotRebuildsMetadata (satellite): a version-1 snapshot (no
// planner metadata on the wire) still loads, and the rebuilt metadata
// answers queries identically to the v2 round-trip.
func TestLoadV1SnapshotRebuildsMetadata(t *testing.T) {
	recs := fixture(t, 300, 11)
	opts := plannerOpts()
	opts.Sketch = core.Minwise64 // the only backend v1 can carry
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, recs, x)

	v2 := x.AppendBinary(nil)
	v1 := appendBinaryV1(x)

	fromV2, err := Load(bytes.NewReader(v2), plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	fromV1, err := Load(bytes.NewReader(v1), plannerOpts())
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	// The rebuilt metadata must be identical to the serialized one: same
	// bounds, same filters. Tombstone map serialization order is not
	// deterministic, so compact both (emptying the tombstones) before the
	// byte comparison — the merged segments and their metadata must agree
	// exactly.
	if len(fromV1.AppendBinary(nil)) != len(fromV2.AppendBinary(nil)) {
		t.Fatal("v1 load + re-save length differs from v2 round-trip")
	}
	fromV1.Compact()
	fromV2.Compact()
	if !bytes.Equal(fromV1.AppendBinary(nil), fromV2.AppendBinary(nil)) {
		t.Fatal("compacted v1 load differs byte-for-byte from compacted v2 load")
	}
	for qi := 0; qi < 200; qi += 9 {
		r := recs[qi]
		if !reflect.DeepEqual(fromV1.Query(r.Sig, r.Size, 0.5), fromV2.Query(r.Sig, r.Size, 0.5)) {
			t.Fatalf("query %d: v1 load and v2 load disagree", qi)
		}
	}
	if len(v2) <= len(v1) {
		t.Fatal("v2 encoding should carry extra metadata bytes")
	}
}

// appendBinaryV1 re-encodes an index in the legacy version-1 layout (no
// per-segment metadata), simulating a snapshot written before the planner.
func appendBinaryV1(x *Index) []byte {
	sn := x.snap.Load()
	seq := sn.seq
	buf := append([]byte(nil), liveMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, liveVersionV1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.NumHash))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.RMax))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.segs)))
	for _, seg := range sn.segs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seg.seqs)))
		for _, s := range seg.seqs {
			buf = binary.LittleEndian.AppendUint64(buf, s)
		}
		buf = seg.idx.AppendBinary(buf)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.buf)))
	for i := range sn.buf {
		e := &sn.buf[i]
		buf = binary.LittleEndian.AppendUint64(buf, e.seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.key)))
		buf = append(buf, e.key...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.size))
		for _, v := range sn.sigs.widen(nil, i) {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.tombs)))
	for k, s := range sn.tombs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, s)
	}
	return buf
}

// TestCorruptMetadataRejected: truncating or corrupting the v2 metadata
// block must fail the load, not silently degrade.
func TestCorruptMetadataRejected(t *testing.T) {
	recs := fixture(t, 60, 12)
	x, err := Build(recs, plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	enc := x.AppendBinary(nil)
	truncated := enc[:len(enc)-9]
	if _, err := Load(bytes.NewReader(truncated), plannerOpts()); err == nil {
		t.Fatal("truncated metadata accepted")
	}
}

// TestResultCacheCoherence: a cached result must never be served across a
// mutation — the generation check forces a recompute.
func TestResultCacheCoherence(t *testing.T) {
	recs := fixture(t, 120, 13)
	x, err := Build(recs[:100], plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	before := x.Query(r.Sig, r.Size, 0.3)
	if !containsKey(before, r.Key) {
		t.Fatal("self-query missed its own key")
	}
	x.Query(r.Sig, r.Size, 0.3) // cache hit
	if x.Stats().Planner.ResultHits == 0 {
		t.Fatal("repeat query did not hit the result cache")
	}
	x.Delete(r.Key)
	after := x.Query(r.Sig, r.Size, 0.3)
	if containsKey(after, r.Key) {
		t.Fatal("stale cached result served after Delete")
	}
	if _, err := x.Add(r); err != nil {
		t.Fatal(err)
	}
	again := x.Query(r.Sig, r.Size, 0.3)
	if !containsKey(again, r.Key) {
		t.Fatal("re-added key invisible after cached queries")
	}
}

// synthRecords builds n records whose signature values are drawn from a
// hash-value pool tagged by pool's low byte: records of different pools
// share no values, like corpora whose domains have nothing in common.
// Sizes spread uniformly over [minSize, maxSize].
func synthRecords(n int, pool uint64, prefix string, minSize, maxSize int) []domain.Record {
	rng := xrand.New(pool*0x9E3779B9 + 1)
	recs := make([]domain.Record, n)
	for i := range recs {
		sig := make(minhash.Signature, 128)
		for j := range sig {
			sig[j] = pool<<56 | rng.Uint64()&((1<<56)-1)
		}
		size := minSize
		if maxSize > minSize {
			size += int(rng.Uint64() % uint64(maxSize-minSize+1))
		}
		recs[i] = domain.Record{Key: fmt.Sprintf("%s-%04d", prefix, i), Size: size, Sig: sig}
	}
	return recs
}

func containsKey(keys []string, k string) bool {
	for _, s := range keys {
		if s == k {
			return true
		}
	}
	return false
}

// TestGenerationFlipHammer (satellite, -race): readers hammer the cached
// query path while writers flip the snapshot generation under them with
// adds, deletes, seals and merges. Every read must be internally consistent
// (a currently-contained self-key present unless deleted concurrently) and
// the run must be race-clean.
func TestGenerationFlipHammer(t *testing.T) {
	recs := fixture(t, 260, 14)
	opts := plannerOpts()
	opts.ManualCompaction = false
	opts.SealThreshold = 16
	x, err := Build(recs[:130], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	// Stable keys: never touched by the writer, must appear in every
	// self-query no matter which generation the reader lands on.
	stable := recs[:50]
	writer.Add(1)
	go func() { // writer: churn the mutable tail (bounded so it cannot
		// starve the readers; every op flips the snapshot generation)
		defer writer.Done()
		for i := 0; i < 1500; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := recs[130+i%130]
			if i%3 == 2 {
				x.Delete(r.Key)
			} else if _, err := x.Add(r); err != nil {
				panic(err)
			}
			if i%97 == 96 {
				x.Flush()
			}
		}
	}()
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			var dst []string
			for i := 0; i < 400; i++ {
				r := stable[(i+w*13)%len(stable)]
				dst = x.QueryAppend(dst[:0], r.Sig, r.Size, 0.5)
				if !containsKey(dst, r.Key) {
					panic("self-query lost a stable key: " + r.Key)
				}
				if i%8 == 0 {
					x.QueryTopK(r.Sig, r.Size, 5)
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestStatsSegmentDetail: the /stats surface carries per-segment planner
// metadata.
func TestStatsSegmentDetail(t *testing.T) {
	recs := fixture(t, 300, 16)
	x, err := New(plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	churn(t, recs, x)
	st := x.Stats()
	if len(st.SegmentDetail) != len(st.Segments) {
		t.Fatalf("detail rows %d != segments %d", len(st.SegmentDetail), len(st.Segments))
	}
	for i, d := range st.SegmentDetail {
		if d.Entries != st.Segments[i] {
			t.Fatalf("segment %d entries %d != %d", i, d.Entries, st.Segments[i])
		}
		if d.MinSize <= 0 || d.MinSize > d.MaxSize || d.MaxBound < d.MaxSize {
			t.Fatalf("segment %d bounds out of order: %+v", i, d)
		}
		if d.BloomBytes <= 0 {
			t.Fatalf("segment %d reports no bloom footprint", i)
		}
	}
}

// TestResultCacheHitIsExact: two queries that collide in the cache set but
// differ in signature, size or threshold must not share a result.
func TestResultCacheHitIsExact(t *testing.T) {
	recs := fixture(t, 100, 17)
	x, err := Build(recs, plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	a := x.Query(r.Sig, r.Size, 0.9)
	b := x.Query(r.Sig, r.Size, 0.0) // same sig+size, different threshold
	if len(b) < len(a) {
		t.Fatal("lower threshold returned fewer candidates — cache confused the keys")
	}
	if got := x.Query(r.Sig, r.Size, math.Nextafter(0.9, 1)); len(got) > len(b) {
		t.Fatal("nearby threshold produced impossible result")
	}
}

// TestAnswersSurviveSealMergeAndQueryOrder pins the banding of a query to the
// query alone: the same 1 000 queries return the same keys from an index
// before a merge rebuilds its sealed segments into one, after it, and from a
// fresh Build over the same records — each asked in a different order, so a
// tuner whose answer depended on which query reached a bucket first would
// differ.
func TestAnswersSurviveSealMergeAndQueryOrder(t *testing.T) {
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: 4000, Seed: 13})
	recs := datagen.Records(corpus, minhash.NewHasher(256, 13))
	opts := Options{Options: core.Options{NumHash: 256, RMax: 8, NumPartitions: 16}, ManualCompaction: true}
	const n = 1000
	query := func(x *Index, i int) []string {
		r := recs[i*37%len(recs)]
		return x.Query(r.Sig, r.Size, 0.5)
	}

	x, err := Build(recs[1:], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// A sealed entry and the tombstone that shadows it: invisible to
	// queries, but enough to make Compact rebuild the segments into one.
	if _, err := x.Add(recs[0]); err != nil {
		t.Fatal(err)
	}
	x.Flush()
	x.Delete(recs[0].Key)
	before := make([][]string, n)
	for i := 0; i < n; i++ {
		before[i] = query(x, i)
	}
	x.Compact()
	if st := x.Stats(); st.Merges != 1 || st.Tombstones != 0 {
		t.Fatalf("compaction did not rebuild the segment: %+v", st)
	}
	for k := 0; k < n; k++ {
		i := k * 7 % n // a permutation of [0, n): 7 and 1000 are coprime
		if got := query(x, i); !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("query %d: %d keys after Compact, %d before", i, len(got), len(before[i]))
		}
	}

	fresh, err := Build(recs[1:], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for i := n - 1; i >= 0; i-- {
		if got := query(fresh, i); !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("query %d: %d keys from a fresh Build asked backwards, %d before", i, len(got), len(before[i]))
		}
	}
}
