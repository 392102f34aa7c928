// Benchmarks: one per paper table/figure (regenerating its workload's hot
// path under testing.B) plus ablations of individual design decisions. Full
// paper-style row output comes from cmd/experiments; these benches measure
// the cost of each experiment's core operation. The end-to-end ledger is
// bench/ (see bench/README.md and BENCHMARK.json).
package lshensemble_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"lshensemble"
	"lshensemble/internal/asym"
	"lshensemble/internal/core"
	"lshensemble/internal/datagen"
	"lshensemble/internal/exact"
	"lshensemble/internal/expt"
	"lshensemble/internal/minhash"
	"lshensemble/internal/partition"
	"lshensemble/internal/stats"
	"lshensemble/internal/xrand"
)

// fixture caches a sketched corpus so repeated benches share setup cost.
type fixture struct {
	corpus  *datagen.Corpus
	records []core.Record
	queries []int
}

var (
	fixtures   = map[string]*fixture{}
	fixtureMu  sync.Mutex
	benchHashA = minhash.NewHasher(256, 99)
)

func openDataFixture(b *testing.B, n int) *fixture {
	b.Helper()
	key := fmt.Sprintf("od-%d", n)
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f, ok := fixtures[key]; ok {
		return f
	}
	c := datagen.OpenData(datagen.OpenDataConfig{NumDomains: n, Seed: 99})
	f := &fixture{
		corpus:  c,
		records: datagen.Records(c, benchHashA),
		queries: datagen.SampleQueries(c, 50, 99),
	}
	fixtures[key] = f
	return f
}

func webTableFixture(b *testing.B, n int) *fixture {
	b.Helper()
	key := fmt.Sprintf("wt-%d", n)
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f, ok := fixtures[key]; ok {
		return f
	}
	c := datagen.WebTable(datagen.WebTableConfig{NumDomains: n, Seed: 99})
	f := &fixture{
		corpus:  c,
		records: datagen.Records(c, benchHashA),
		queries: datagen.SampleQueries(c, 50, 99),
	}
	fixtures[key] = f
	return f
}

// --- Figure 1: corpus generation + size histogram ---

func BenchmarkFig1SizeHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := datagen.OpenData(datagen.OpenDataConfig{NumDomains: 2000, Seed: uint64(i)})
		_ = stats.LogHistogram(c.Sizes())
		_ = stats.PowerLawAlphaMLE(c.Sizes(), 10)
	}
}

// --- Figure 4: the accuracy workload's query loop ---

func BenchmarkFig4QueryAccuracyWorkload(b *testing.B) {
	f := openDataFixture(b, 4000)
	idx, err := core.Build(f.records, lshensemble.Options{NumPartitions: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := f.queries[i%len(f.queries)]
		idx.QueryIDsAppend(nil, f.records[qi].Sig, f.records[qi].Size, 0.5)
	}
}

// BenchmarkFig4GroundTruth measures the exact-engine side of Fig. 4.
func BenchmarkFig4GroundTruth(b *testing.B) {
	f := openDataFixture(b, 4000)
	engine := exact.Build(datagen.ExactDomains(f.corpus))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := f.queries[i%len(f.queries)]
		engine.Scores(f.corpus.Domains[qi].Values)
	}
}

// --- Figure 5: skew-sweep subset construction + one subset evaluation ---

func BenchmarkFig5SkewSweep(b *testing.B) {
	f := openDataFixture(b, 4000)
	for i := 0; i < b.N; i++ {
		subsets := datagen.NestedSizeSubsets(f.corpus, 10)
		for _, s := range subsets {
			sizes := make([]int, len(s))
			for j, k := range s {
				sizes[j] = len(f.corpus.Domains[k].Values)
			}
			_ = stats.SkewnessInts(sizes)
		}
	}
}

// --- Figures 6/7: decile query selection ---

func BenchmarkFig6LargeQuerySelection(b *testing.B) {
	f := openDataFixture(b, 4000)
	for i := 0; i < b.N; i++ {
		datagen.QueriesBySizeDecile(f.corpus, 9, 100, uint64(i))
	}
}

// --- Figure 8: partition morphing ---

func BenchmarkFig8PartitionMorph(b *testing.B) {
	f := openDataFixture(b, 4000)
	sizes := f.corpus.Sizes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.Morph(sizes, 32, float64(i%9)/8)
	}
}

// --- Figure 9: indexing and query cost ---

func BenchmarkFig9Indexing(b *testing.B) {
	for _, parts := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			f := webTableFixture(b, 10000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(f.records, lshensemble.Options{NumPartitions: parts}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig9Sketching(b *testing.B) {
	f := webTableFixture(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		datagen.Records(f.corpus, benchHashA)
	}
}

func BenchmarkFig9Query(b *testing.B) {
	for _, parts := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			f := webTableFixture(b, 10000)
			idx, err := core.Build(f.records, lshensemble.Options{NumPartitions: parts})
			if err != nil {
				b.Fatal(err)
			}
			// Warm the tuning cache as a production deployment would be.
			for _, qi := range f.queries {
				idx.QueryIDsAppend(nil, f.records[qi].Sig, f.records[qi].Size, 0.5)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qi := f.queries[i%len(f.queries)]
				idx.QueryIDsAppend(nil, f.records[qi].Sig, f.records[qi].Size, 0.5)
			}
		})
	}
}

// --- Table 4: baseline vs ensemble, sharded ---

func BenchmarkTab4IndexingCost(b *testing.B) {
	for _, parts := range []int{1, 8, 32} {
		name := fmt.Sprintf("ensemble=%d", parts)
		if parts == 1 {
			name = "baseline"
		}
		b.Run(name, func(b *testing.B) {
			f := webTableFixture(b, 10000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(f.records, lshensemble.Options{NumPartitions: parts}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTab4QueryCost(b *testing.B) {
	for _, parts := range []int{1, 8, 32} {
		name := fmt.Sprintf("ensemble=%d", parts)
		if parts == 1 {
			name = "baseline"
		}
		b.Run(name, func(b *testing.B) {
			f := openDataFixture(b, 8000) // overlapping corpus → non-trivial candidates
			idx, err := core.Build(f.records, lshensemble.Options{NumPartitions: parts})
			if err != nil {
				b.Fatal(err)
			}
			for _, qi := range f.queries {
				idx.QueryIDsAppend(nil, f.records[qi].Sig, f.records[qi].Size, 0.5)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qi := f.queries[i%len(f.queries)]
				idx.QueryIDsAppend(nil, f.records[qi].Sig, f.records[qi].Size, 0.5)
			}
		})
	}
}

// --- Figure 10: asym padding + analysis ---

func BenchmarkFig10AsymPad(b *testing.B) {
	h := minhash.NewHasher(256, 1)
	sig := h.SketchStrings([]string{"a", "b", "c"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asym.Pad(sig, "key", 1_000_000)
	}
}

func BenchmarkFig10Analysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.RunFig10()
	}
}

// --- Ablations ---

// BenchmarkAblationRMax sweeps the forest depth: deeper trees mean fewer,
// more selective probes per band.
func BenchmarkAblationRMax(b *testing.B) {
	for _, rMax := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("rmax=%d", rMax), func(b *testing.B) {
			f := openDataFixture(b, 4000)
			idx, err := core.Build(f.records, lshensemble.Options{
				NumPartitions: 16, RMax: rMax,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, qi := range f.queries {
				idx.QueryIDsAppend(nil, f.records[qi].Sig, f.records[qi].Size, 0.5)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qi := f.queries[i%len(f.queries)]
				idx.QueryIDsAppend(nil, f.records[qi].Sig, f.records[qi].Size, 0.5)
			}
		})
	}
}

// BenchmarkAblationPartitioner compares the three partitioning strategies
// on build cost over the same skewed corpus.
func BenchmarkAblationPartitioner(b *testing.B) {
	for name, pf := range map[string]lshensemble.PartitionerFunc{
		"equidepth": lshensemble.EquiDepth,
		"equiwidth": lshensemble.EquiWidth,
		"minimax":   lshensemble.Minimax,
	} {
		b.Run(name, func(b *testing.B) {
			f := openDataFixture(b, 4000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(f.records, lshensemble.Options{
					NumPartitions: 16, Partitioner: pf,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuerySteadyStateAllocs measures the allocation profile of the
// pooled query path. QueryIDsAppend with a reused destination buffer is the
// steady-state serving loop and must not allocate at all once the scratch
// pool and tuning cache are warm.
func BenchmarkQuerySteadyStateAllocs(b *testing.B) {
	f := openDataFixture(b, 4000)
	idx, err := core.Build(f.records, lshensemble.Options{NumPartitions: 16})
	if err != nil {
		b.Fatal(err)
	}
	var ids []uint32
	for _, qi := range f.queries {
		ids, _ = idx.QueryIDsAppend(ids[:0], f.records[qi].Sig, f.records[qi].Size, 0.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := f.queries[i%len(f.queries)]
		ids, _ = idx.QueryIDsAppend(ids[:0], f.records[qi].Sig, f.records[qi].Size, 0.5)
	}
}

// BenchmarkSketchBatched measures the batched corpus-sketching path
// (PushHashedBlock) against the per-value loop it amortizes.
func BenchmarkSketchBatched(b *testing.B) {
	h := minhash.NewHasher(256, 7)
	values := make([]uint64, 4096)
	for i := range values {
		values[i] = minhash.HashUint64(uint64(i))
	}
	b.Run("block", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sig := h.NewSignature()
			h.PushHashedBlock(sig, values)
		}
	})
	b.Run("per-value", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sig := h.NewSignature()
			for _, hv := range values {
				h.PushHashed(sig, hv)
			}
		}
	})
}

// BenchmarkSerialization measures index save/load round trips.
func BenchmarkSerialization(b *testing.B) {
	f := openDataFixture(b, 4000)
	idx, err := core.Build(f.records, lshensemble.Options{NumPartitions: 16})
	if err != nil {
		b.Fatal(err)
	}
	buf := idx.AppendBinary(nil)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx.AppendBinary(buf[:0])
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Parallel construction + batch serving ---

// BenchmarkBuildParallel measures full ensemble construction — partition
// routing, then one lshforest.Build per partition (a single-allocation store
// fill and the per-tree sorts) — the work of every seal. Run with -cpu 1,4,8
// to see the worker pools scale.
func BenchmarkBuildParallel(b *testing.B) {
	f := webTableFixture(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(f.records, lshensemble.Options{NumPartitions: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// batchBench is a built-once live index over the web-table fixture and a
// 256-query batch of its sampled queries at t* = 0.5.
func batchBench(b *testing.B) (*lshensemble.LiveIndex, []lshensemble.BatchQuery) {
	f := webTableFixture(b, 10000)
	idx := builtOnce(b, f.records, lshensemble.Options{NumPartitions: 16})
	batch := make([]lshensemble.BatchQuery, 256)
	for i := range batch {
		qi := f.queries[i%len(f.queries)]
		batch[i] = lshensemble.BatchQuery{Sig: f.records[qi].Sig, Size: f.records[qi].Size, Threshold: 0.5}
	}
	return idx, batch
}

// BenchmarkQueryBatchThroughput measures batch serving through
// LiveIndex.QueryBatch, segment-major over the workers (result cache off).
// Reported as queries/s; run with -cpu 1,4,8.
func BenchmarkQueryBatchThroughput(b *testing.B) {
	idx, batch := batchBench(b)
	idx.QueryBatch(batch, 0) // warm the scratch pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.QueryBatch(batch, 0)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(batch))/secs, "queries/s")
	}
}

// BenchmarkQueryBatchVsSerial pins the same workload through a serial
// QueryAppend loop for an apples-to-apples comparison with the batch.
func BenchmarkQueryBatchVsSerial(b *testing.B) {
	idx, batch := batchBench(b)
	var dst []string
	for _, q := range batch {
		dst = idx.QueryAppend(dst[:0], q.Sig, q.Size, q.Threshold)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range batch {
			dst = idx.QueryAppend(dst[:0], q.Sig, q.Size, q.Threshold)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(batch))/secs, "queries/s")
	}
}

// --- Live index: serving while the corpus churns ---

// liveBenchIndex builds a live index with several sealed segments, a warm
// buffer, and some tombstones — the steady-state shape a serving daemon
// reaches.
func liveBenchIndex(b *testing.B, f *fixture, seal int) *lshensemble.LiveIndex {
	b.Helper()
	idx, err := lshensemble.BuildLive(f.records[:len(f.records)/2], lshensemble.LiveOptions{
		Options:       lshensemble.Options{NumPartitions: 16},
		SealThreshold: seal,
		MaxSegments:   8,
		// Result caching off: these benches predate the planner and measure
		// the raw probe path; BenchmarkResultCacheHit measures the cache.
		ResultCacheSize: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	half := len(f.records) / 2
	for i := half; i < len(f.records); i++ {
		if _, err := idx.Add(f.records[i]); err != nil {
			b.Fatal(err)
		}
		if (i-half)%1000 == 999 {
			idx.Flush()
		}
	}
	for i := 0; i < half; i += 97 {
		idx.Delete(f.records[i].Key)
	}
	idx.Flush() // drain the buffer tail so both benches start from the same shape
	return idx
}

// BenchmarkLiveQueryIdle is the baseline: queries against a multi-segment
// live snapshot with no writers running. Compare with
// BenchmarkLiveQueryDuringCompaction.
func BenchmarkLiveQueryIdle(b *testing.B) {
	f := openDataFixture(b, 8000)
	idx := liveBenchIndex(b, f, 1024)
	defer idx.Close()
	var dst []string
	for _, qi := range f.queries {
		dst = idx.QueryAppend(dst[:0], f.records[qi].Sig, f.records[qi].Size, 0.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := f.queries[i%len(f.queries)]
		dst = idx.QueryAppend(dst[:0], f.records[qi].Sig, f.records[qi].Size, 0.5)
	}
}

// BenchmarkLiveTopK is BenchmarkLiveQueryIdle's snapshot under ranked
// queries: per segment a 20-rung threshold ladder, which the per-tree mask
// and the ladder's unchanged-(b, r) skip both shorten.
func BenchmarkLiveTopK(b *testing.B) {
	f := openDataFixture(b, 8000)
	idx := liveBenchIndex(b, f, 1024)
	defer idx.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := f.queries[i%len(f.queries)]
		idx.QueryTopK(f.records[qi].Sig, f.records[qi].Size, 10)
	}
}

// BenchmarkLiveQueryDuringCompaction measures query latency while a writer
// goroutine streams adds and deletes fast enough to keep the background
// compactor continuously sealing and merging — the acceptance target is
// staying within 2x of BenchmarkLiveQueryIdle. Queries never block on the
// ingest path (they read atomically-swapped snapshots), so the remaining
// gap is pure CPU contention with the build work.
func BenchmarkLiveQueryDuringCompaction(b *testing.B) {
	f := openDataFixture(b, 8000)
	// A small seal threshold keeps the background compactor continuously
	// sealing and merging under the churn stream below.
	idx := liveBenchIndex(b, f, 256)
	defer idx.Close()
	var dst []string
	for _, qi := range f.queries {
		dst = idx.QueryAppend(dst[:0], f.records[qi].Sig, f.records[qi].Size, 0.5)
	}

	stop := make(chan struct{})
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		// Stream adds and deletes at a paced ~2k mutations/s — a saturating
		// writer on a single-CPU box would only measure scheduler starvation,
		// while a paced stream measures what snapshots cost the read path.
		// Each wakeup catches up to the wall-clock target in a burst, so the
		// rate holds even when the CPU-bound query loop delays scheduling.
		// The 256-entry seal threshold keeps the compactor sealing a segment
		// every ~130 ms and merging as segments accumulate.
		const mutationsPerSecond = 2000
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			target := int(time.Since(start).Seconds() * mutationsPerSecond)
			for ; i < target; i++ {
				src := f.records[i%len(f.records)]
				key := fmt.Sprintf("churn-%d", i%4096)
				if _, err := idx.Add(lshensemble.DomainRecord{Key: key, Size: src.Size, Sig: src.Sig}); err != nil {
					b.Error(err)
					return
				}
				if i%3 == 0 {
					idx.Delete(fmt.Sprintf("churn-%d", (i-2000)%4096))
				}
			}
		}
	}()

	before := idx.Stats()
	// No ReportAllocs here: the counter is process-wide and would charge the
	// writer's and compactor's allocations to the query loop.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := f.queries[i%len(f.queries)]
		dst = idx.QueryAppend(dst[:0], f.records[qi].Sig, f.records[qi].Size, 0.5)
	}
	b.StopTimer()
	close(stop)
	writerWg.Wait()
	after := idx.Stats()
	b.ReportMetric(float64(after.Seals-before.Seals), "seals")
	b.ReportMetric(float64(after.Merges-before.Merges), "merges")
}

// BenchmarkLiveIngest measures the write path: Add throughput including the
// amortized background sealing cost.
func BenchmarkLiveIngest(b *testing.B) {
	f := openDataFixture(b, 8000)
	idx, err := lshensemble.BuildLive(nil, lshensemble.LiveOptions{
		Options:         lshensemble.Options{NumPartitions: 16},
		SealThreshold:   1024,
		MaxSegments:     8,
		ResultCacheSize: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := f.records[i%len(f.records)]
		if _, err := idx.Add(lshensemble.DomainRecord{
			Key:  fmt.Sprintf("ingest-%d", i),
			Size: src.Size,
			Sig:  src.Sig,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Segment-aware query planning ---

// poolRecords synthesizes records whose signature values carry a pool tag in
// the top byte, so records from different pools never collide in the forest.
// datagen's value universes overlap across seeds, which would leave every
// segment a Bloom candidate; disjoint pools give the planner segments it can
// provably rule out.
func poolRecords(pool uint64, n, minSize, maxSize int) []lshensemble.DomainRecord {
	rng := xrand.New(pool*0x9E3779B97F4A7C15 + 1)
	recs := make([]lshensemble.DomainRecord, n)
	for i := range recs {
		sig := make(minhash.Signature, 128)
		for j := range sig {
			sig[j] = pool<<56 | rng.Uint64()&((1<<56)-1)
		}
		recs[i] = lshensemble.DomainRecord{
			Key:  fmt.Sprintf("p%02d-%04d", pool, i),
			Size: minSize + int(rng.Uint64()%uint64(maxSize-minSize+1)),
			Sig:  sig,
		}
	}
	return recs
}

// manySegmentsIndex builds a live index with exactly `pools` sealed segments
// (one per disjoint value pool) and returns the records of the first
// hotPools pools — the only segments any query over them can match.
func manySegmentsIndex(b *testing.B, opts lshensemble.LiveOptions, pools, hotPools int) (*lshensemble.LiveIndex, []lshensemble.DomainRecord) {
	b.Helper()
	idx, err := lshensemble.BuildLive(nil, opts)
	if err != nil {
		b.Fatal(err)
	}
	var hot []lshensemble.DomainRecord
	for p := 0; p < pools; p++ {
		recs := poolRecords(uint64(p), 64, 32, 512)
		for _, r := range recs {
			if _, err := idx.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		idx.Flush() // one sealed segment per pool; ManualCompaction keeps them apart
		if p < hotPools {
			hot = append(hot, recs...)
		}
	}
	return idx, hot
}

// BenchmarkLiveQueryManySegments measures what segment pruning buys on a
// snapshot with many sealed segments when the query's candidates live in only
// a few of them — the skewed shape a long-running daemon reaches. 8 of 32
// segments hold candidates; the planner's Bloom/range metadata must rule the
// other 24 out without probing. The pruned config keeps the result cache off
// so the speedup is honest planning, not memoization.
func BenchmarkLiveQueryManySegments(b *testing.B) {
	const pools, hotPools = 32, 8
	run := func(b *testing.B, opts lshensemble.LiveOptions) {
		idx, hot := manySegmentsIndex(b, opts, pools, hotPools)
		defer idx.Close()
		// A fixed 64-query working set spread across the hot pools, so the
		// timed loop measures the planner's steady state.
		queries := make([]lshensemble.DomainRecord, 64)
		for i := range queries {
			queries[i] = hot[i*17%len(hot)]
		}
		var dst []string
		for _, r := range queries { // warm scratch
			dst = idx.QueryAppend(dst[:0], r.Sig, r.Size, 0.5)
		}
		st := idx.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := queries[i%len(queries)]
			dst = idx.QueryAppend(dst[:0], r.Sig, r.Size, 0.5)
		}
		b.StopTimer()
		after := idx.Stats()
		probed := after.Planner.SegmentsProbed - st.Planner.SegmentsProbed
		pruned := after.Planner.SegmentsRangePruned - st.Planner.SegmentsRangePruned +
			after.Planner.SegmentsBloomPruned - st.Planner.SegmentsBloomPruned
		if total := probed + pruned; total > 0 {
			b.ReportMetric(float64(pruned)/float64(total), "pruned-frac")
		}
	}
	base := lshensemble.LiveOptions{
		Options:          lshensemble.Options{NumHash: 128, RMax: 4, NumPartitions: 8},
		SealThreshold:    64,
		MaxSegments:      pools + 1,
		ManualCompaction: true,
		ResultCacheSize:  -1,
	}
	b.Run("pruned", func(b *testing.B) { run(b, base) })
	b.Run("unpruned", func(b *testing.B) {
		opts := base
		opts.DisablePruning = true
		run(b, opts)
	})
}

// BenchmarkResultCacheHit measures the snapshot-coherent result cache: the
// hit path (same query, unchanged snapshot generation) against the cold path
// (cache disabled, full planned scan every time). Hits must be
// allocation-free — the cached key slice is appended straight into dst.
func BenchmarkResultCacheHit(b *testing.B) {
	const pools, hotPools = 32, 8
	run := func(b *testing.B, cacheSize int, spread int) {
		opts := lshensemble.LiveOptions{
			Options:          lshensemble.Options{NumHash: 128, RMax: 4, NumPartitions: 8},
			SealThreshold:    64,
			MaxSegments:      pools + 1,
			ManualCompaction: true,
			ResultCacheSize:  cacheSize,
		}
		idx, hot := manySegmentsIndex(b, opts, pools, hotPools)
		defer idx.Close()
		var dst []string
		for i := 0; i < spread; i++ {
			r := hot[i]
			dst = idx.QueryAppend(dst[:0], r.Sig, r.Size, 0.5)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := hot[i%spread]
			dst = idx.QueryAppend(dst[:0], r.Sig, r.Size, 0.5)
		}
	}
	// 64 distinct queries cycle well inside the default 1024-entry cache, so
	// after warmup every iteration is a generation-checked hit.
	b.Run("hit", func(b *testing.B) { run(b, 0, 64) })
	b.Run("cold", func(b *testing.B) { run(b, -1, 64) })
}

// outOfCoreBenchIndex builds the steady multi-segment shape of
// liveBenchIndex, optionally spilled to dataDir and served via mmap.
func outOfCoreBenchIndex(b *testing.B, f *fixture, dataDir string, mmap bool) *lshensemble.LiveIndex {
	b.Helper()
	idx, err := lshensemble.BuildLive(f.records[:len(f.records)/2], lshensemble.LiveOptions{
		Options:          lshensemble.Options{NumPartitions: 16},
		SealThreshold:    1024,
		MaxSegments:      8,
		ManualCompaction: true,
		// Result caching off: the point is the raw probe path over the two
		// backings, not memoization.
		ResultCacheSize: -1,
		DataDir:         dataDir,
		Mmap:            mmap,
	})
	if err != nil {
		b.Fatal(err)
	}
	half := len(f.records) / 2
	for i := half; i < len(f.records); i++ {
		if _, err := idx.Add(f.records[i]); err != nil {
			b.Fatal(err)
		}
		if (i-half)%1000 == 999 {
			idx.Flush()
		}
	}
	idx.Flush()
	return idx
}

// BenchmarkLiveQueryMmapVsHeap is the zero-copy acceptance bench: the same
// multi-segment corpus queried from heap-resident segments vs mmap-backed
// segment files. The binary-search probes run directly on the mapped byte
// views, so once the working set is faulted in, mmap must stay within 1.3x
// of heap — and both paths must be allocation-free in steady state.
func BenchmarkLiveQueryMmapVsHeap(b *testing.B) {
	f := openDataFixture(b, 8000)
	run := func(b *testing.B, dataDir string, mmap bool) {
		idx := outOfCoreBenchIndex(b, f, dataDir, mmap)
		defer idx.Close()
		var dst []string
		for _, qi := range f.queries { // warm scratch, page cache
			dst = idx.QueryAppend(dst[:0], f.records[qi].Sig, f.records[qi].Size, 0.5)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			qi := f.queries[i%len(f.queries)]
			dst = idx.QueryAppend(dst[:0], f.records[qi].Sig, f.records[qi].Size, 0.5)
		}
	}
	b.Run("heap", func(b *testing.B) { run(b, "", false) })
	b.Run("mmap", func(b *testing.B) { run(b, b.TempDir(), true) })
}

// BenchmarkColdBootLazy measures restart cost: time from snapshot bytes to
// the first answered query. The eager path decodes the whole inline v3
// snapshot; the lazy path opens a manifest whose segments are mmapped —
// only the header and planner metadata are read eagerly, the signature
// store pages in on demand as the first query probes it.
func BenchmarkColdBootLazy(b *testing.B) {
	f := openDataFixture(b, 8000)
	q := f.records[f.queries[0]]

	heapOpts := lshensemble.LiveOptions{
		Options:          lshensemble.Options{NumPartitions: 16},
		SealThreshold:    1024,
		ManualCompaction: true,
	}
	src, err := lshensemble.BuildLive(f.records, heapOpts)
	if err != nil {
		b.Fatal(err)
	}
	var inline bytes.Buffer
	if err := src.Save(&inline); err != nil {
		b.Fatal(err)
	}
	src.Close()

	mmapOpts := heapOpts
	mmapOpts.DataDir = b.TempDir()
	mmapOpts.Mmap = true
	src, err = lshensemble.BuildLive(f.records, mmapOpts)
	if err != nil {
		b.Fatal(err)
	}
	var manifest bytes.Buffer
	if err := src.Save(&manifest); err != nil {
		b.Fatal(err)
	}
	src.Close()

	boot := func(b *testing.B, snap []byte, opts lshensemble.LiveOptions) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			idx, err := lshensemble.LoadLive(bytes.NewReader(snap), opts)
			if err != nil {
				b.Fatal(err)
			}
			if got := idx.Query(q.Sig, q.Size, 0.5); len(got) == 0 {
				b.Fatal("first query after boot found nothing")
			}
			idx.Close()
		}
	}
	b.Run("eager-inline", func(b *testing.B) { boot(b, inline.Bytes(), heapOpts) })
	b.Run("lazy-mmap", func(b *testing.B) { boot(b, manifest.Bytes(), mmapOpts) })
}
