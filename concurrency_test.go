package lshensemble_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"lshensemble"
	"lshensemble/internal/core"
	"lshensemble/internal/datagen"
	"lshensemble/internal/minhash"
)

// builtOnce is the paper's build-once index through the public API: the
// records sealed into one segment, nothing compacting, and the result cache
// off, so that every query runs the probe in pooled scratch.
func builtOnce(t testing.TB, recs []lshensemble.DomainRecord, opts lshensemble.Options) *lshensemble.LiveIndex {
	t.Helper()
	idx, err := lshensemble.BuildLive(recs, lshensemble.LiveOptions{
		Options:          opts,
		ManualCompaction: true,
		ResultCacheSize:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestConcurrentQueries hammers one index from many goroutines — the
// documented concurrency contract (safe for concurrent queries). Run with
// -race to validate.
func TestConcurrentQueries(t *testing.T) {
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: 1000, Seed: 21})
	h := minhash.NewHasher(128, 21)
	recs := datagen.Records(corpus, h)
	idx := builtOnce(t, recs, lshensemble.Options{NumHash: 128, RMax: 4, NumPartitions: 8})
	queries := datagen.SampleQueries(corpus, 20, 21)

	// Reference results computed single-threaded.
	want := make([][]string, len(queries))
	for i, qi := range queries {
		want[i] = idx.Query(recs[qi].Sig, recs[qi].Size, 0.5)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (w + rep) % len(queries)
				qi := queries[i]
				got := idx.Query(recs[qi].Sig, recs[qi].Size, 0.5)
				if len(got) != len(want[i]) {
					errs <- fmt.Errorf("worker %d: query %d returned %d results, want %d",
						w, i, len(got), len(want[i]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentTopK exercises the top-k path concurrently (it shares the
// tuner cache across goroutines).
func TestConcurrentTopK(t *testing.T) {
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: 500, Seed: 22})
	h := minhash.NewHasher(128, 22)
	recs := datagen.Records(corpus, h)
	idx := builtOnce(t, recs, lshensemble.Options{NumHash: 128, RMax: 4, NumPartitions: 8})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				r := recs[(w*37+rep*11)%len(recs)]
				if top := idx.QueryTopK(r.Sig, r.Size, 5); len(top) == 0 {
					t.Errorf("worker %d: empty top-k for self query", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentPooledScratch hammers the pooled query scratch (the dedup
// arrays, plans and tree sets recycled through the index's sync.Pools) from
// many goroutines at once, mixing the Query, QueryAppend, QueryBatch and
// QueryTopK entry points so scratches are constantly recycled across
// goroutines. Run with -race: a pool must never hand the same state to two
// in-flight queries, and results must match the single-threaded reference
// on every repetition.
func TestConcurrentPooledScratch(t *testing.T) {
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: 1500, Seed: 23})
	h := minhash.NewHasher(128, 23)
	recs := datagen.Records(corpus, h)
	idx := builtOnce(t, recs, lshensemble.Options{NumHash: 128, RMax: 4, NumPartitions: 8})
	queries := datagen.SampleQueries(corpus, 30, 23)
	thresholds := []float64{0.25, 0.5, 0.75}

	want := make(map[[2]int]int) // (query, threshold) → result count
	for i, qi := range queries {
		for j, ts := range thresholds {
			want[[2]int{i, j}] = len(idx.Query(recs[qi].Sig, recs[qi].Size, ts))
		}
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []string // reused, as a serving loop would
			for rep := 0; rep < 40; rep++ {
				i := (w*7 + rep) % len(queries)
				j := (w + rep) % len(thresholds)
				qi := queries[i]
				var got int
				switch rep % 3 {
				case 0:
					dst = idx.QueryAppend(dst[:0], recs[qi].Sig, recs[qi].Size, thresholds[j])
					got = len(dst)
				case 1:
					got = len(idx.Query(recs[qi].Sig, recs[qi].Size, thresholds[j]))
				default:
					// The query as the middle row of a batch on two workers.
					other := lshensemble.BatchQuery{Sig: recs[queries[0]].Sig, Size: recs[queries[0]].Size, Threshold: 0.5}
					batch := []lshensemble.BatchQuery{other, {Sig: recs[qi].Sig, Size: recs[qi].Size, Threshold: thresholds[j]}, other}
					got = len(idx.QueryBatch(batch, 2)[1])
				}
				if got != want[[2]int{i, j}] {
					errs <- fmt.Errorf("worker %d rep %d: query %d t*=%v returned %d results, want %d",
						w, rep, i, thresholds[j], got, want[[2]int{i, j}])
					return
				}
				if rep%5 == 0 {
					if top := idx.QueryTopK(recs[qi].Sig, recs[qi].Size, 5); len(top) == 0 {
						errs <- fmt.Errorf("worker %d rep %d: empty top-k for self query", w, rep)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPublicTopK(t *testing.T) {
	h := lshensemble.NewHasher(256, 1)
	var records []lshensemble.DomainRecord
	// Nested prefixes: pN contains p(N-1) ⊂ ... ⊂ p0's values.
	for i := 1; i <= 10; i++ {
		vals := make([]string, i*10)
		for j := range vals {
			vals[j] = fmt.Sprintf("v%d", j)
		}
		records = append(records, lshensemble.SketchStrings(h, fmt.Sprintf("p%d", i), vals))
	}
	idx := builtOnce(t, records, lshensemble.Options{NumPartitions: 4})
	q := records[2] // p3, values v0..v29, contained in p3..p10
	top := idx.QueryTopK(q.Sig, q.Size, 3)
	if len(top) != 3 {
		t.Fatalf("got %d results", len(top))
	}
	if top[0].EstContainment < 0.9 {
		t.Fatalf("top-1 containment %v", top[0].EstContainment)
	}
}

// TestLiveConcurrentChurn hammers a lshensemble.LiveIndex through the
// public API with concurrent queriers, adders, deleters AND the background
// compactor running at aggressive thresholds — the live index needs no
// external synchronization at all. Run with -race. Queries assert
// snapshot invariants (each key at most once, only keys that were ever
// added); the final compacted state is checked against a model.
func TestLiveConcurrentChurn(t *testing.T) {
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: 900, Seed: 26})
	h := minhash.NewHasher(128, 26)
	recs := datagen.Records(corpus, h)
	idx, err := lshensemble.BuildLive(recs[:300], lshensemble.LiveOptions{
		Options:       lshensemble.Options{NumHash: 128, RMax: 4, NumPartitions: 4},
		SealThreshold: 32,
		MaxSegments:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()

	known := make(map[string]bool, len(recs))
	for _, r := range recs {
		known[r.Key] = true
	}
	var modelMu sync.Mutex
	model := make(map[string]bool, len(recs))
	for _, r := range recs[:300] {
		model[r.Key] = true
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 300 + a; i < len(recs); i += 2 {
				if _, err := idx.Add(recs[i]); err != nil {
					errs <- err
					return
				}
				modelMu.Lock()
				model[recs[i].Key] = true
				modelMu.Unlock()
			}
		}(a)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i += 4 {
			if idx.Delete(recs[i].Key) {
				modelMu.Lock()
				delete(model, recs[i].Key)
				modelMu.Unlock()
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen := make(map[string]bool, 64)
			for rep := 0; rep < 120; rep++ {
				r := recs[(w*97+rep*13)%len(recs)]
				var rows [][]string
				if rep%3 == 0 {
					rows = idx.QueryBatch([]lshensemble.BatchQuery{
						{Sig: r.Sig, Size: r.Size, Threshold: 0.5},
						{Sig: r.Sig, Size: r.Size, Threshold: 1.0},
					}, 2)
				} else {
					rows = [][]string{idx.Query(r.Sig, r.Size, 0.5)}
				}
				for _, res := range rows {
					clear(seen)
					for _, k := range res {
						if !known[k] || seen[k] {
							errs <- fmt.Errorf("worker %d rep %d: bad/duplicate key %q", w, rep, k)
							return
						}
						seen[k] = true
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	idx.Compact()
	if idx.Len() != len(model) {
		t.Fatalf("final Len %d, model %d", idx.Len(), len(model))
	}
	st := idx.Stats()
	if st.Tombstones != 0 || st.Buffered != 0 || len(st.Segments) > 1 {
		t.Fatalf("Compact left residue: %+v", st)
	}
	for i, r := range recs {
		if i%7 != 0 {
			continue
		}
		found := false
		for _, k := range idx.Query(r.Sig, r.Size, 1.0) {
			if k == r.Key {
				found = true
			}
		}
		if want := model[r.Key]; found != want {
			t.Fatalf("final state: key %q present=%v, model %v", r.Key, found, want)
		}
	}
}

// TestLiveSteadyStateAllocs proves the live fan-out keeps the PR 1/PR 2
// allocation discipline at the public API: steady-state QueryAppend with a
// reused destination against a multi-segment snapshot (sealed segments, a
// live buffer and tombstones all in play) allocates nothing — answered from
// the result cache or, with it off, by the planned fan-out.
func TestLiveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates and randomizes sync.Pool reuse")
	}
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: 800, Seed: 27})
	h := minhash.NewHasher(128, 27)
	recs := datagen.Records(corpus, h)
	for _, resultCache := range []int{0, -1} {
		idx, err := lshensemble.BuildLive(recs[:400], lshensemble.LiveOptions{
			Options:          lshensemble.Options{NumHash: 128, RMax: 4, NumPartitions: 8},
			ManualCompaction: true,
			ResultCacheSize:  resultCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		for _, r := range recs[400:600] {
			if _, err := idx.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		idx.Flush()
		for _, r := range recs[600:700] {
			if _, err := idx.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		idx.Flush()
		for _, r := range recs[700:750] {
			if _, err := idx.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 750; i += 31 {
			idx.Delete(recs[i].Key)
		}
		st := idx.Stats()
		if len(st.Segments) < 3 || st.Buffered == 0 || st.Tombstones == 0 {
			t.Fatalf("fixture shape wrong: %+v", st)
		}
		wantNoQueryAllocs(t, context.Background(), idx, recs, resultCache)
	}
}

// wantNoQueryAllocs fails if steady-state QueryAppendContext on idx allocates:
// for one query repeated and, with the result cache off (a miss stores its answer,
// which allocates), for a pass of 600 queries no two of which share a
// (|Q|, t*) pair — every one plans its segments afresh, in pooled scratch.
func wantNoQueryAllocs(t *testing.T, ctx context.Context, idx *lshensemble.LiveIndex, recs []lshensemble.DomainRecord, resultCache int) {
	t.Helper()
	var dst []string
	pass := func() {
		for j := 0; j < 600; j++ {
			r := recs[j*37%len(recs)]
			dst, _ = idx.QueryAppendContext(ctx, dst[:0], r.Sig, r.Size, 0.2+0.001*float64(j))
		}
	}
	pass()
	pass()
	if allocs := testing.AllocsPerRun(50, func() {
		dst, _ = idx.QueryAppendContext(ctx, dst[:0], recs[101].Sig, recs[101].Size, 0.5)
	}); allocs > 0 {
		t.Errorf("result cache %d: steady-state live QueryAppend allocates %.1f per query, want 0", resultCache, allocs)
	}
	if resultCache >= 0 {
		return
	}
	if allocs := testing.AllocsPerRun(5, pass); allocs > 0 {
		t.Errorf("result cache %d: 600 queries of distinct (|Q|, t*) allocate %.0f times, want 0", resultCache, allocs)
	}
}

// TestQueryBatchSteadyStateAllocs proves the static index's batch loop
// (core.Index.QueryBatchInto, the benchmark ladder's static-index rung)
// performs zero per-query steady-state allocations: growing the batch 4x must
// not grow the allocation count, and a whole batch allocates at most what
// refilling the scratch pool after a collection costs.
func TestQueryBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates and randomizes sync.Pool reuse")
	}
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: 1000, Seed: 25})
	h := minhash.NewHasher(128, 25)
	recs := datagen.Records(corpus, h)
	idx, err := core.Build(recs, lshensemble.Options{NumHash: 128, RMax: 4, NumPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	queries := datagen.SampleQueries(corpus, 32, 25)
	mkBatch := func(n int) []lshensemble.BatchQuery {
		batch := make([]lshensemble.BatchQuery, n)
		for i := range batch {
			qi := queries[i%len(queries)]
			batch[i] = lshensemble.BatchQuery{Sig: recs[qi].Sig, Size: recs[qi].Size, Threshold: 0.5}
		}
		return batch
	}
	small, large := mkBatch(128), mkBatch(512)
	var res core.BatchResults
	// Warm the scratch pool and the arena with the largest shape before
	// measuring.
	for i := 0; i < 3; i++ {
		idx.QueryBatchInto(&res, large, 0)
		idx.QueryBatchInto(&res, small, 0)
	}
	allocsSmall := testing.AllocsPerRun(20, func() { idx.QueryBatchInto(&res, small, 0) })
	allocsLarge := testing.AllocsPerRun(20, func() { idx.QueryBatchInto(&res, large, 0) })
	perQuery := (allocsLarge - allocsSmall) / float64(len(large)-len(small))
	if perQuery > 0.01 {
		t.Errorf("batch allocations grow with batch size: %.1f (128 queries) vs %.1f (512 queries), %.3f allocs/query",
			allocsSmall, allocsLarge, perQuery)
	}
	if allocsLarge > 4 {
		t.Errorf("a 512-query batch allocates %.1f times, want at most 4", allocsLarge)
	}
}
