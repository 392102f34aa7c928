package core

import (
	"errors"
	"slices"
	"testing"

	"lshensemble/internal/domain"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/minhash"
	"lshensemble/internal/tune"
	"lshensemble/internal/xrand"
)

// plannedTestIndex builds a small index with a size spread wide enough that
// different (querySize, tStar) pairs skip different partitions.
func plannedTestIndex(t *testing.T, n int) (*Index, []domain.Record) {
	t.Helper()
	rng := xrand.New(42)
	recs := make([]domain.Record, n)
	for i := range recs {
		size := 4 + int(rng.Uint64()%512)
		sig := make(minhash.Signature, 128)
		for j := range sig {
			// Overlapping value pools so queries actually collide.
			sig[j] = rng.Uint64() % 4096 << 3
		}
		recs[i] = domain.Record{Key: keyOf(i), Size: size, Sig: sig}
	}
	x, err := Build(recs, Options{NumHash: 128, RMax: 8, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	return x, recs
}

func keyOf(i int) string {
	return string([]byte{'k', byte('a' + i%26), byte('a' + (i/26)%26), byte('0' + i%10)})
}

func TestPlannedQueryMatchesDirect(t *testing.T) {
	x, recs := plannedTestIndex(t, 400)
	for _, tStar := range []float64{0.0, 0.3, 0.5, 0.8, 1.0} {
		for qi := 0; qi < 50; qi++ {
			rec := recs[qi*7%len(recs)]
			plan := x.PlanPartitions(nil, rec.Size, tStar)
			if len(plan) != len(x.parts) {
				t.Fatalf("plan has %d entries, want %d", len(plan), len(x.parts))
			}
			direct, err := x.QueryIDsAppend(nil, rec.Sig, rec.Size, tStar)
			if err != nil {
				t.Fatal(err)
			}
			planned, err := x.QueryIDsPlannedAppend(nil, rec.Sig, plan)
			if err != nil {
				t.Fatal(err)
			}
			if len(direct) != len(planned) {
				t.Fatalf("t*=%.2f: planned returned %d ids, direct %d", tStar, len(planned), len(direct))
			}
			for i := range direct {
				if direct[i] != planned[i] {
					t.Fatalf("t*=%.2f: id %d differs: planned %d, direct %d", tStar, i, planned[i], direct[i])
				}
			}
		}
	}
}

func TestPlanPartitionsMarksSkips(t *testing.T) {
	x, _ := plannedTestIndex(t, 200)
	// A tiny query at a high threshold must rule out the small partitions:
	// u/q < t* for every partition whose upper bound is below t*·q.
	plan := x.PlanPartitions(nil, 5000, 0.9)
	bounds := x.PartitionBounds()
	skipped := 0
	for pi, p := range plan {
		upper := bounds[pi].Upper
		if float64(upper)/5000 < 0.9 {
			if p.B != 0 {
				t.Fatalf("partition %d (upper %d) should be skipped for q=5000 t*=0.9", pi, upper)
			}
			skipped++
		} else if p.B == 0 {
			t.Fatalf("partition %d (upper %d) wrongly skipped", pi, upper)
		}
	}
	if skipped == 0 {
		t.Fatal("test index produced no skippable partitions; widen the size spread")
	}
}

func TestPlannedAppendRejectsWrongShape(t *testing.T) {
	x, recs := plannedTestIndex(t, 50)
	if _, err := x.QueryIDsPlannedAppend(nil, recs[0].Sig, make([]tune.Params, len(x.parts)+1)); err == nil {
		t.Fatal("mismatched plan length accepted")
	}
	plan, short := x.PlanPartitions(nil, recs[0].Size, 0.5), make([]lshforest.TreeSet, len(x.parts)-1)
	if _, err := x.QueryIDsMaskedAppend(nil, recs[0].Sig, plan, short); err == nil {
		t.Fatal("mismatched tree-set count accepted")
	}
	if _, err := x.QueryTopKIDsMasked(nil, recs[0].Sig, recs[0].Size, 5, short); err == nil {
		t.Fatal("mismatched tree-set count accepted by the ladder")
	}
}

// TestQueryTopKIDsMatchesQueryTopK: the ladder's collection is what a top-k
// query ranks, so it must hold every id at most once and the ranking of it
// must be k keys drawn from it, best first.
func TestQueryTopKIDsMatchesQueryTopK(t *testing.T) {
	x, recs := plannedTestIndex(t, 300)
	for qi := 0; qi < 20; qi++ {
		rec := recs[qi*11%len(recs)]
		const k = 10
		ids, err := x.QueryTopKIDs(nil, rec.Sig, rec.Size, k)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]bool, len(ids))
		for _, id := range ids {
			if got[x.Key(id)] {
				t.Fatalf("query %d: id %d collected twice", qi, id)
			}
			got[x.Key(id)] = true
		}
		full := mustTopK(t, x, rec.Sig, rec.Size, k)
		if len(full) != min(k, len(ids)) {
			t.Fatalf("query %d: ranked %d of %d candidates, want %d", qi, len(full), len(ids), min(k, len(ids)))
		}
		for i, r := range full {
			if !got[r.Key] {
				t.Fatalf("ranked key %q missing from QueryTopKIDs candidates", r.Key)
			}
			if i > 0 && domain.CompareTopK(full[i-1], r) > 0 {
				t.Fatalf("query %d: ranking out of order at %d", qi, i)
			}
		}
	}
}

func TestEachTreeLeadingCoversProbes(t *testing.T) {
	x, recs := plannedTestIndex(t, 150)
	// Collect every leading column value; any query that produces a
	// collision must have its per-tree leading value present in the set —
	// the invariant segment Bloom pruning relies on.
	seen := make(map[uint64]bool)
	trees := 0
	x.EachTreeLeading(func(_, tree int, col []uint64) {
		trees++
		for _, v := range col {
			seen[v] = true
		}
	})
	if trees == 0 {
		t.Fatal("EachTreeLeading visited no trees")
	}
	rmax := 8
	for qi := 0; qi < 30; qi++ {
		rec := recs[qi%len(recs)]
		ids, err := x.QueryIDsAppend(nil, rec.Sig, rec.Size, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) == 0 {
			continue
		}
		// At least one tree's leading value must be in the collected set
		// (in fact every colliding tree's is; one suffices for the test).
		hit := false
		for tr := 0; tr*rmax < len(rec.Sig); tr++ {
			if seen[rec.Sig[tr*rmax]] {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("query %d collided but no leading value found in tree columns", qi)
		}
	}
}

// TestAnswersIndependentOfQueryOrder asks two builds of the same records the
// same 1 000 queries, one forwards and one backwards. The banding a query
// gets must not depend on which earlier query happened to touch the tuner's
// bucket first, so every query returns the identical id slice from both.
func TestAnswersIndependentOfQueryOrder(t *testing.T) {
	c := makeCorpus(t, 4000, 256, 77)
	opts := Options{NumHash: 256, RMax: 8, NumPartitions: 16}
	fwd, err := Build(c.records, opts)
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := Build(c.records, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	query := func(x *Index, i int) []uint32 {
		r := c.records[i*37%len(c.records)]
		return mustQueryIDs(t, x, domain.BatchQuery{Sig: r.Sig, Size: r.Size, Threshold: 0.5})
	}
	got := make([][]uint32, n)
	for i := 0; i < n; i++ {
		got[i] = query(fwd, i)
	}
	differ := 0
	for i := n - 1; i >= 0; i-- {
		if !equalIDs(got[i], query(bwd, i)) {
			differ++
		}
	}
	if differ != 0 {
		t.Fatalf("%d of %d queries answer differently when asked in reverse order", differ, n)
	}
}

// TestTopKLadderSkipKeepsSequence pins the ladder's rung skipping: a walk
// that drops the probes of partitions whose (b, r) did not change since the
// walk last probed them must collect the very id sequence of the plain walk
// that re-probes every partition on every rung — and must have had something
// to skip, or the test shows nothing.
func TestTopKLadderSkipKeepsSequence(t *testing.T) {
	x, recs := plannedTestIndex(t, 400)
	skipped := 0
	for qi := 0; qi < 60; qi++ {
		rec := recs[qi*7%len(recs)]
		for _, k := range []int{1, 10, 50, 1000} {
			s := x.acquireScratch()
			var want []uint32
			var last []tune.Params
			for _, tStar := range topKThresholds {
				want = x.queryInto(want, s, rec.Sig, rec.Size, tStar)
				for pi, p := range s.plan {
					if p.B != 0 && last != nil && p == last[pi] {
						skipped++
					}
				}
				last = append(last[:0], s.plan...)
				if len(want) >= k {
					break
				}
			}
			x.releaseScratch(s)
			got, err := x.QueryTopKIDs(nil, rec.Sig, rec.Size, k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("query %d k=%d: ladder with skips collected %v, plain ladder %v", qi, k, got, want)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no rung repeated a partition's (b, r): the fixture exercises no skip")
	}
}

// exactTrees returns, per partition of x, the set of trees whose leading
// column there holds sig's leading value of that tree — what two filters
// without false positives would hand the masked entry points.
func exactTrees(x *Index, sig minhash.Signature) []lshforest.TreeSet {
	sets := make([]lshforest.TreeSet, len(x.parts))
	for p := range sets {
		sets[p] = make(lshforest.TreeSet, lshforest.TreeSetWords(x.opts.NumHash/x.opts.RMax))
	}
	x.EachTreeLeading(func(part, tree int, col []uint64) {
		if _, ok := slices.BinarySearch(col, sig[tree*x.opts.RMax]); ok {
			sets[part].Add(tree)
		}
	})
	return sets
}

// TestMaskedEntryPointsMatchUnmasked checks both masked shapes against their
// unmasked twins, byte for byte and in the same order, under the exact
// per-partition tree sets — with an empty partition among them, which the
// probe must not enter. (A batch row under tree sets is internal/live's, which
// runs it through the single-query entry point: TestQueryShapesAgree there.)
func TestMaskedEntryPointsMatchUnmasked(t *testing.T) {
	x, recs := plannedTestIndex(t, 400)
	emptyParts := 0
	for qi := 0; qi < 60; qi++ {
		rec := recs[qi*7%len(recs)]
		// Redraw half the trees so the sets are proper subsets.
		sig := slices.Clone(rec.Sig)
		for tr := 0; tr < len(sig)/8; tr += 2 {
			sig[tr*8] = uint64(qi*131+tr) | 1 // odd: never stored (values are multiples of 8)
		}
		trees := exactTrees(x, sig)
		any := false
		for _, set := range trees {
			for tr := 0; tr < len(sig)/8; tr += 2 {
				if set.Has(tr) {
					t.Fatalf("query %d: redrawn tree %d is in an exact set", qi, tr)
				}
			}
			if set.Empty() {
				emptyParts++
			} else {
				any = true
			}
		}
		if !any {
			t.Fatalf("query %d: every exact set is empty", qi)
		}
		for _, tStar := range []float64{0, 0.5, 1} {
			plan := x.PlanPartitions(nil, rec.Size, tStar)
			want, _ := x.QueryIDsPlannedAppend(nil, sig, plan)
			got, err := x.QueryIDsMaskedAppend(nil, sig, plan, trees)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("query %d t*=%.1f: masked %v (%v), unmasked %v", qi, tStar, got, err, want)
			}
		}
		want, _ := x.QueryTopKIDs(nil, sig, rec.Size, 10)
		got, err := x.QueryTopKIDsMasked(nil, sig, rec.Size, 10, trees)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("query %d top-k: masked %v (%v), unmasked %v", qi, got, err, want)
		}
	}
	if emptyParts == 0 {
		t.Fatal("no query left a partition's set empty: the skip is not exercised")
	}
}

// TestShortQuerySignatureRejected: a query signature shorter than NumHash
// used to index out of range inside the probe; every entry point now refuses
// it with ErrSignatureLength (a batch gives the row an empty answer).
func TestShortQuerySignatureRejected(t *testing.T) {
	x, recs := plannedTestIndex(t, 100)
	short := recs[0].Sig[:100]
	plan := x.PlanPartitions(nil, recs[0].Size, 0.5)
	checks := map[string]func() error{
		"QueryIDsAppend":        func() error { _, err := x.QueryIDsAppend(nil, short, 10, 0.5); return err },
		"QueryIDsPlannedAppend": func() error { _, err := x.QueryIDsPlannedAppend(nil, short, plan); return err },
		"QueryTopKIDs":          func() error { _, err := x.QueryTopKIDs(nil, short, 10, 5); return err },
	}
	for name, call := range checks {
		if err := call(); !errors.Is(err, ErrSignatureLength) {
			t.Errorf("%s(short signature) = %v, want ErrSignatureLength", name, err)
		}
	}
	rows := batchRows(t, x, []domain.BatchQuery{
		{Sig: short, Size: recs[0].Size, Threshold: 0},
		{Sig: recs[0].Sig, Size: recs[0].Size, Threshold: 0},
	})
	if len(rows[0]) != 0 || len(rows[1]) == 0 {
		t.Fatalf("batch rows = %v: want the short row empty and the full row answered", rows)
	}
}
