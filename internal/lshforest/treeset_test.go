package lshforest

import (
	"slices"
	"testing"

	"lshensemble/internal/xrand"
)

// poisonTree drops tree t's leading column and its fence, so any probe that
// touches the tree indexes a nil slice and panics.
func (ts *tstore[E, L]) poisonTree(t int) { ts.treeKeys[t], ts.fences[t] = nil, nil }

// spreader returns a function that sets bits 16 and 33 of a value at random,
// from its own stream so that the draws of the caller's stay as they were:
// values then agree in their low 16 bits but not at 32, and at 32 but not in
// all 64, so a probe that truncates a lead or a slot to the wrong width
// reports what the scan does not.
func spreader(seed uint64) func(v uint64) uint64 {
	rng := xrand.New(seed ^ 0x5bd1e995)
	return func(v uint64) uint64 {
		return v | uint64(rng.Intn(2))<<16 | uint64(rng.Intn(2))<<33
	}
}

// spread applies sp to every value of sigs.
func spread(sp func(uint64) uint64, sigs [][]uint64) {
	for _, s := range sigs {
		for k := range s {
			s[k] = sp(s[k])
		}
	}
}

// collectQuery returns the id sequence a one-job Probe reports, occurrences
// and order included.
func collectQuery(f *Forest, sig []uint64, b, r int, trees TreeSet) []uint32 {
	var out []uint32
	Probe([]Job{{Forest: f, B: b, R: r, Trees: trees}}, sig, func(id uint32) bool {
		out = append(out, id)
		return true
	})
	return out
}

// checkTreeSetQuery builds a random forest from the seed and asserts, on one
// random query, that the unrestricted probe reports, report for report, what
// a linear scan of each of the first b trees reports, tree after tree (so a
// probe that takes the trees of a word out of order, or drops one, fails),
// and the TreeSet contract: restricted to exactly the trees whose leading
// column holds the query's leading value, Probe reports the very sequence the
// unrestricted probe reports — also with extra trees in the set (what a filter
// false positive adds) — and touches no tree outside the set.
func checkTreeSetQuery(t *testing.T, seed uint64, widthSel, shapeSel, bSel, rSel uint8) {
	shapes := [...][2]int{{32, 4}, {64, 8}, {256, 2}, {24, 5}, {130, 1}}
	width := [...]int{8, 4, 2}[widthSel%3]
	numHash, rMax := shapes[int(shapeSel)%len(shapes)][0], shapes[int(shapeSel)%len(shapes)][1]
	rng := xrand.New(seed)
	// Small value ranges make leading values (and whole bands) collide; the
	// wide one leaves most trees without a match.
	valueRange := [...]uint64{3, 40, 1 << 20}[rng.Intn(3)]
	n := 1 + rng.Intn(200)
	sigs, ids := randSigs(rng, n, numHash, valueRange)
	sp := spreader(seed)
	spread(sp, sigs)
	f := build(numHash, rMax, width, ids, sigs)
	bMax := f.BMax()
	b, r := 1+int(bSel)%bMax, 1+int(rSel)%rMax

	// The query: a stored signature with some trees' values redrawn, so a
	// few trees match deep, some only on the leading value, some not at all.
	q := slices.Clone(sigs[rng.Intn(n)])
	for k := range q {
		if rng.Intn(3) == 0 {
			q[k] = sp(rng.Uint64() % valueRange)
		}
	}

	mask := widthMask(leadBytes(width))
	exact := make(TreeSet, TreeSetWords(bMax))
	wider := make(TreeSet, TreeSetWords(bMax))
	for tr := 0; tr < bMax; tr++ {
		if _, ok := slices.BinarySearch(f.TreeLeadingColumn(tr), q[tr*rMax]&mask); ok {
			exact.Add(tr)
			wider.Add(tr)
		} else if rng.Intn(4) == 0 {
			wider.Add(tr)
		}
	}

	want := collectQuery(f, q, b, r, nil)
	var scan []uint32
	for tr := 0; tr < b; tr++ {
		scan = append(scan, linearProbe(f, q, tr, r)...)
	}
	if !slices.Equal(want, scan) {
		t.Fatalf("width %d shape %dx%d (b=%d r=%d): probe = %v, linear scan of the trees in order = %v", width, numHash, rMax, b, r, want, scan)
	}
	if got := collectQuery(f, q, b, r, wider); !slices.Equal(got, want) {
		t.Fatalf("width %d shape %dx%d (b=%d r=%d): superset-restricted query = %v, unrestricted = %v", width, numHash, rMax, b, r, got, want)
	}
	// From here on, touching a tree outside the exact set panics.
	for tr := 0; tr < bMax; tr++ {
		if !exact.Has(tr) {
			f.trees[tr] = nil
			f.st.(interface{ poisonTree(int) }).poisonTree(tr)
		}
	}
	if got := collectQuery(f, q, b, r, exact); !slices.Equal(got, want) {
		t.Fatalf("width %d shape %dx%d (b=%d r=%d): restricted query = %v, unrestricted = %v", width, numHash, rMax, b, r, got, want)
	}
	if !slices.ContainsFunc(exact, func(w uint64) bool { return w != 0 }) && len(want) != 0 {
		t.Fatalf("empty tree set but the unrestricted probe found %v", want)
	}
}

// jobScan is the reference Probe is held to: job after job, a linear scan of
// each of the job's trees among its first B that is in its set, tree after
// tree.
func jobScan(jobs []Job, q []uint64) []uint32 {
	var out []uint32
	for _, j := range jobs {
		for tr := 0; tr < j.B && j.Forest.Len() > 0; tr++ {
			if j.Trees.Has(tr) {
				out = append(out, linearProbe(j.Forest, q, tr, j.R)...)
			}
		}
	}
	return out
}

// collectProbe returns the id sequence Probe reports, with an fn that asks to
// stop after the stop-th report (never, for stop ≤ 0).
func collectProbe(jobs []Job, q []uint64, stop int) []uint32 {
	var out []uint32
	Probe(jobs, q, func(id uint32) bool {
		out = append(out, id)
		return len(out) != stop
	})
	return out
}

// checkProbeJobs builds several random forests of one width and shape, of
// different sizes (at times an empty one), and asserts that one Probe over
// jobs on them reports, report for report, what jobScan reports. The jobs
// hold more than 64 columns in all, so a stage chunk ends inside some
// forest's trees; the second job probes fewer than BMax trees and the third
// has an empty set; the others draw a forest (one may recur), b, r and a set
// that is nil or random. An fn that stops after the N-th report must see the
// reference's first N.
func checkProbeJobs(t *testing.T, seed uint64, widthSel, shapeSel, bSel, rSel uint8) {
	shapes := [...][2]int{{32, 4}, {64, 8}, {256, 2}, {24, 5}, {130, 1}}
	width := [...]int{8, 4, 2}[widthSel%3]
	numHash, rMax := shapes[int(shapeSel)%len(shapes)][0], shapes[int(shapeSel)%len(shapes)][1]
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	valueRange := [...]uint64{3, 40, 1 << 20}[rng.Intn(3)]
	forests := make([]*Forest, 2+rng.Intn(3))
	sp := spreader(seed)
	var pool [][]uint64
	for i := range forests {
		n := 1 + rng.Intn(150)
		if i > 0 && rng.Intn(4) == 0 {
			n = 0
		}
		sigs, ids := randSigs(rng, n, numHash, valueRange)
		for k := range ids {
			ids[k] += uint32(i) << 20 // the reports name their forest
		}
		spread(sp, sigs)
		forests[i] = build(numHash, rMax, width, ids, sigs)
		pool = append(pool, sigs...)
	}
	q := slices.Clone(pool[rng.Intn(len(pool))])
	for k := range q {
		if rng.Intn(3) == 0 {
			q[k] = sp(rng.Uint64() % valueRange)
		}
	}

	bMax := forests[0].BMax()
	var jobs []Job
	cols := 0
	for len(jobs) < 3 || cols <= 64 {
		f := forests[rng.Intn(len(forests))]
		b, r := 1+rng.Intn(bMax), 1+rng.Intn(rMax)
		var set TreeSet
		switch {
		case len(jobs) == 1:
			f, b = forests[0], 1+int(bSel)%max(1, bMax-1)
		case len(jobs) == 2:
			set = make(TreeSet, TreeSetWords(b))
		case rng.Intn(3) > 0:
			set = make(TreeSet, TreeSetWords(b))
			for tr := 0; tr < b; tr++ {
				if rng.Intn(4) > 0 {
					set.Add(tr)
				}
			}
		}
		for tr := 0; tr < b && f.Len() > 0; tr++ {
			if set.Has(tr) {
				cols++
			}
		}
		jobs = append(jobs, Job{Forest: f, B: b, R: r, Trees: set})
	}

	want := jobScan(jobs, q)
	if got := collectProbe(jobs, q, 0); !slices.Equal(got, want) {
		t.Fatalf("width %d shape %dx%d, %d jobs over %d columns: probe = %v, per-job per-tree linear scan = %v", width, numHash, rMax, len(jobs), cols, got, want)
	}
	stop := 1 + int(rSel)%(len(want)+1)
	if got := collectProbe(jobs, q, stop); !slices.Equal(got, want[:min(stop, len(want))]) {
		t.Fatalf("width %d shape %dx%d, %d jobs, fn stops after report %d: probe = %v, linear scan = %v", width, numHash, rMax, len(jobs), stop, got, want)
	}
}

// FuzzQueryTreeSet is the test that fails if the probe ever drops, adds or
// reorders a report against a per-tree linear scan, or the per-tree mask
// drops a candidate, and if the multi-forest Probe does against a per-job,
// per-tree linear scan (checkProbeJobs). Its seed corpus — every store width
// × every shape, including the 128-tree NumHash 256 / RMax 2 forest and a
// 130-tree one whose set spans three words — runs under plain `go test`;
// widthSel 3 wraps to width 8, which it covers a second time on other seeds.
// Width 2 is the 2-byte store with 4-byte leads; the values' random bits 16
// and 33 (spreader) tell its leads from 2-byte ones and from full-width ones.
func FuzzQueryTreeSet(f *testing.F) {
	for widthSel := uint8(0); widthSel < 4; widthSel++ {
		for shapeSel := uint8(0); shapeSel < 5; shapeSel++ {
			for i := uint8(0); i < 6; i++ {
				f.Add(uint64(widthSel)<<16|uint64(shapeSel)<<8|uint64(i), widthSel, shapeSel, 255-i*40, i)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, widthSel, shapeSel, bSel, rSel uint8) {
		checkTreeSetQuery(t, seed, widthSel, shapeSel, bSel, rSel)
		checkProbeJobs(t, seed, widthSel, shapeSel, bSel, rSel)
	})
}

func TestProbeRefusesMixedWidths(t *testing.T) {
	sig := make([]uint64, 8)
	jobs := []Job{
		{Forest: build(8, 2, 8, []uint32{0}, [][]uint64{sig}), B: 4, R: 2},
		{Forest: build(8, 2, 4, []uint32{0}, [][]uint64{sig}), B: 4, R: 2},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Probe took a width-4 forest after a width-8 one")
		}
	}()
	Probe(jobs, sig, func(uint32) bool { return true })
}

func TestQueryTreeSetTooShortPanics(t *testing.T) {
	f := build(130, 1, 8, []uint32{0}, [][]uint64{make([]uint64, 130)})
	defer func() {
		if recover() == nil {
			t.Fatal("Probe accepted a 1-word set for 130 trees")
		}
	}()
	Probe([]Job{{Forest: f, B: 130, R: 1, Trees: make(TreeSet, 1)}}, make([]uint64, 130), func(uint32) bool { return true })
}
