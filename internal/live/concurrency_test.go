package live

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lshensemble/internal/domain"
)

// TestConcurrentHammer races queriers, adders, a deleter and the background
// compactor (aggressive thresholds force continuous sealing and merging)
// against one live index. Run with -race. Readers assert only snapshot
// invariants — each key at most once per result, no impossible keys — since
// the exact candidate set legitimately shifts while writers run. After the
// writers stop, the final state is compacted and checked against a model of
// the surviving records.
func TestConcurrentHammer(t *testing.T) {
	recs := fixture(t, 1200, 21)
	opts := liveOpts()
	opts.ManualCompaction = false
	opts.SealThreshold = 24
	opts.MaxSegments = 3
	x, err := Build(recs[:300], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	// model tracks what the writers did; guarded by modelMu (test-side only,
	// the index itself is exercised without external locks).
	var modelMu sync.Mutex
	model := make(map[string]bool, len(recs))
	for _, r := range recs[:300] {
		model[r.Key] = true
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Two adders split the remaining records.
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 300 + a; i < len(recs); i += 2 {
				if _, err := x.Add(recs[i]); err != nil {
					errs <- err
					return
				}
				modelMu.Lock()
				model[recs[i].Key] = true
				modelMu.Unlock()
			}
		}(a)
	}

	// One deleter sweeps the initially indexed keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i += 3 {
			if x.Delete(recs[i].Key) {
				modelMu.Lock()
				delete(model, recs[i].Key)
				modelMu.Unlock()
			}
		}
	}()

	// One churner deletes and re-adds keys the deleter leaves alone, racing
	// the seals and merges that sweep their tombstones; the last round
	// leaves every other key deleted.
	var churned []domain.Record
	for i := 1; i < 300; i += 6 {
		churned = append(churned, recs[i])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 6; round++ {
			for j, r := range churned {
				present := round%2 == 1
				if !present {
					x.Delete(r.Key)
				} else if _, err := x.Add(r); err != nil {
					errs <- err
					return
				}
				if round == 5 && j%2 == 0 {
					x.Delete(r.Key)
					present = false
				}
				modelMu.Lock()
				if present {
					model[r.Key] = true
				} else {
					delete(model, r.Key)
				}
				modelMu.Unlock()
			}
		}
	}()

	// Queriers: single and batch paths, checking per-result invariants.
	known := make(map[string]bool, len(recs))
	for _, r := range recs {
		known[r.Key] = true
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen := make(map[string]bool, 64)
			for rep := 0; rep < 150; rep++ {
				r := recs[(w*131+rep*17)%len(recs)]
				var results [][]string
				if rep%4 == 0 {
					results = x.QueryBatch([]domain.BatchQuery{
						{Sig: r.Sig, Size: r.Size, Threshold: 0.5},
						{Sig: r.Sig, Size: r.Size, Threshold: 1.0},
					}, 2)
				} else {
					results = [][]string{x.Query(r.Sig, r.Size, 0.5)}
				}
				for _, res := range results {
					clear(seen)
					for _, k := range res {
						if !known[k] {
							errs <- fmt.Errorf("worker %d rep %d: impossible key %q", w, rep, k)
							return
						}
						if seen[k] {
							errs <- fmt.Errorf("worker %d rep %d: duplicate key %q", w, rep, k)
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

	// No churned key the model holds deleted may come back, before or after
	// compaction.
	checkChurned := func(when string) {
		t.Helper()
		for _, r := range churned {
			if got := contains(x.Query(r.Sig, r.Size, 1.0), r.Key); got != model[r.Key] {
				t.Fatalf("%s: churned key %q present=%v, model says %v", when, r.Key, got, model[r.Key])
			}
		}
	}
	checkChurned("before Compact")

	// Quiesce and verify the final state against the model: compaction must
	// leave exactly the surviving records, all self-retrievable.
	x.Compact()
	checkChurned("after Compact")
	if x.Len() != len(model) {
		t.Fatalf("final Len %d, model %d", x.Len(), len(model))
	}
	st := x.Stats()
	if st.Seals == 0 {
		t.Fatal("background compactor never sealed during the hammer")
	}
	if st.Tombstones != 0 || st.Buffered != 0 {
		t.Fatalf("Compact left residue: %+v", st)
	}
	for i, r := range recs {
		if i%5 != 0 {
			continue
		}
		got := contains(x.Query(r.Sig, r.Size, 1.0), r.Key)
		if want := model[r.Key]; got != want {
			t.Fatalf("final state: key %q present=%v, model says %v", r.Key, got, want)
		}
	}
}

// TestQuerySnapshotStability pins the point-in-time guarantee: a reader
// that loaded a snapshot keeps getting answers from it even while the
// writer replaces the whole corpus and the compactor churns underneath.
func TestQuerySnapshotStability(t *testing.T) {
	recs := fixture(t, 200, 22)
	opts := liveOpts()
	opts.SealThreshold = 16
	opts.ManualCompaction = false
	x, err := Build(recs[:100], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	sn := x.snap.Load() // the reader's frozen view
	for _, r := range recs[100:] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		x.Delete(recs[i].Key)
	}
	x.Compact()

	// The frozen snapshot still answers exactly as before: all 100 original
	// records, none of the later ones.
	s := x.acquireScratch()
	var tl tally
	for i := 0; i < 200; i += 9 {
		r := recs[i]
		var res []string
		for si := range sn.segs {
			res = x.probeSegment(res, s, &tl, sn, si, r.Sig, r.Size, 1.0)
		}
		res, _ = x.appendBufferMatches(context.Background(), res, s, &tl, sn, r.Sig, r.Size, 1.0)
		if want := i < 100; contains(res, r.Key) != want {
			t.Fatalf("snapshot drifted: key %d present=%v, want %v", i, !want, want)
		}
	}
	x.releaseScratch(s)

	// The current snapshot shows the new world.
	if x.Len() != 100 {
		t.Fatalf("Len = %d, want 100", x.Len())
	}
	if contains(x.Query(recs[0].Sig, recs[0].Size, 1.0), recs[0].Key) {
		t.Fatal("deleted key visible in the current snapshot")
	}
}

// TestReadersSeeOneState: Stats, Len and Save read nothing but the snapshot
// they pin, so while a writer and the compactor run, what each reports agrees
// with the Seq it reports: the live count is a scripted writer's after Seq
// mutations, Seq never goes back, and a saved snapshot loads to that state.
// Run with -race.
func TestReadersSeeOneState(t *testing.T) {
	recs := fixture(t, 240, 23)
	opts := liveOpts()
	opts.SealThreshold = 16
	opts.ManualCompaction = false
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// The script adds every record and deletes the one before each third;
	// live[s] is the live count after its first s mutations.
	live := []int{0}
	for i := range recs {
		live = append(live, live[len(live)-1]+1)
		if i%3 == 2 {
			live = append(live, live[len(live)-1]-1)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, r := range recs {
			if _, err := x.Add(r); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 2 && !x.Delete(recs[i-1].Key) {
				t.Errorf("Delete(%s) = false", recs[i-1].Key)
				return
			}
		}
	}()
	defer func() { <-done }() // before x.Close, also when a check fails
	var last uint64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		st := x.Stats()
		if st.Seq < last || st.Domains != live[st.Seq] {
			t.Fatalf("Stats: Seq %d (last %d), %d domains, want %d", st.Seq, last, st.Domains, live[st.Seq])
		}
		last = st.Seq
		y, err := Load(bytes.NewReader(x.AppendBinary(nil)), liveOpts())
		if err != nil {
			t.Fatal(err)
		}
		seq, n := y.Stats().Seq, y.Len()
		y.Close()
		if seq < last || n != live[seq] {
			t.Fatalf("saved snapshot: Seq %d (last %d), Len %d, want %d", seq, last, n, live[seq])
		}
		last = seq
	}
	if n := len(live) - 1; last != uint64(n) {
		t.Fatalf("last Seq %d, want %d", last, n)
	}
}

// TestBufferColumnsGrowUnderQueries: the buffer's lead columns regrow (at 64,
// 128 and 256 entries here) while readers query older snapshots of them. A
// writer buffers 300 records while two readers query records already added,
// each of which must find itself at t* = 1. Run with -race: the column writes
// and copies must reach a reader only through the snapshot swap.
func TestBufferColumnsGrowUnderQueries(t *testing.T) {
	recs := fixture(t, 300, 24)
	opts := liveOpts()
	opts.SealThreshold = 1 << 20 // everything stays buffered
	opts.ResultCacheSize = -1
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	var added atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				n := int(added.Load())
				if n == 0 {
					continue
				}
				if r := recs[i%n]; !contains(x.Query(r.Sig, r.Size, 1), r.Key) {
					t.Errorf("buffered record %d of %d did not find itself", i%n, n)
					return
				}
			}
		}(g)
	}
	for _, r := range recs {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
		added.Add(1)
	}
}

// TestSteadyStateQueryAllocs proves the live fan-out keeps the PR 1/PR 2
// allocation discipline: steady-state QueryAppend with a reused destination
// against a multi-segment snapshot (with buffered entries and tombstones in
// play) allocates nothing. The result cache is off, so that every measured
// query runs the fan-out and the buffer scan (the trace asserts the scan);
// TestInstrumentedQueryZeroAllocs covers the cache's hit path.
func TestSteadyStateQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates and randomizes sync.Pool reuse")
	}
	recs := fixture(t, 600, 23)
	opts := liveOpts()
	opts.ResultCacheSize = -1
	x, err := Build(recs[:200], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// Three sealed segments + a live buffer + tombstones.
	for _, r := range recs[200:400] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	for _, r := range recs[400:500] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	for _, r := range recs[500:550] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 550; i += 23 {
		x.Delete(recs[i].Key)
	}
	st := x.Stats()
	if len(st.Segments) < 3 || st.Buffered == 0 || st.Tombstones == 0 {
		t.Fatalf("fixture shape wrong: %+v", st)
	}

	var dst []string
	warm := func() {
		for i := 0; i < len(recs); i += 29 {
			r := recs[i]
			dst = x.QueryAppend(dst[:0], r.Sig, r.Size, 0.5)
		}
	}
	warm() // fill the scratch pool and the tuning cache
	warm()
	var tr QueryTrace
	ctx := WithQueryTrace(context.Background(), &tr)
	allocs := testing.AllocsPerRun(50, func() {
		r := recs[37]
		dst, _ = x.QueryAppendContext(ctx, dst[:0], r.Sig, r.Size, 0.5)
	})
	if allocs > 0 {
		t.Fatalf("steady-state QueryAppend allocates %.1f per query, want 0", allocs)
	}
	if !tr.BufferScanned {
		t.Fatalf("the measured query did not scan the buffer, so the gate does not cover the scan: %+v", tr)
	}
}
