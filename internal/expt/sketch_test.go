package expt

import (
	"fmt"
	"testing"

	"lshensemble/internal/core"
	"lshensemble/internal/datagen"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/minhash"
)

// frontierCfg is the deterministic reduced-scale Fig. 4 workload behind the
// accuracy-regression floors: small enough for tier-1 CI, large enough that
// the backends separate cleanly on the frontier.
func frontierCfg() SketchConfig {
	return SketchConfig{
		AccuracyConfig: AccuracyConfig{
			NumDomains: 800,
			NumQueries: 60,
			NumHash:    256,
			RMax:       8,
			Thresholds: []float64{0.5},
			Seed:       1,
		},
		NumPartitions: 16,
	}
}

// TestSketchFrontierAccuracyFloors is the accuracy-regression gate: each
// backend's Fig. 4 precision/recall at t*=0.5 must clear its floor. The
// floors encode the frontier's shape — wide minwise stores keep the
// full-width operating point at a half and at 576/2 048 of the bytes (never
// losing recall, by the superset property), and KMV's cardinality-aware
// scoring is the sharpest per byte. Minwise16's floor is minwise32's measured
// point itself: with its band leads at 32 bits it returns minwise32's
// candidates, so it may not fall below minwise32 on either axis. Any
// estimator or masking regression shows up here as a floor breach.
func TestSketchFrontierAccuracyFloors(t *testing.T) {
	rows, err := RunSketchFrontier(frontierCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Reference run (seed 1): minwise64/32/16 P=0.797 R=0.918, kmv P=0.994
	// R=0.961. Floors sit well below to absorb platform float jitter but far
	// above any broken estimator.
	floors := map[string]struct{ p, r float64 }{
		"minwise64": {0.70, 0.85},
		"minwise32": {0.70, 0.85},
		"minwise16": {0.70, 0.85},
		"kmv":       {0.90, 0.90},
	}
	seen := map[string]FrontierRow{}
	for _, r := range rows {
		seen[r.System] = r
		f, ok := floors[r.System]
		if !ok {
			t.Fatalf("unexpected system %q on the frontier", r.System)
		}
		if r.Precision < f.p {
			t.Errorf("%s precision %.3f below floor %.2f", r.System, r.Precision, f.p)
		}
		if r.Recall < f.r {
			t.Errorf("%s recall %.3f below floor %.2f", r.System, r.Recall, f.r)
		}
	}
	if len(seen) != len(floors) {
		t.Fatalf("frontier covered %d systems, want %d", len(seen), len(floors))
	}
	// The superset property in aggregate: truncation must not lose recall.
	for _, narrow := range []string{"minwise16", "minwise32"} {
		if seen[narrow].Recall < seen["minwise64"].Recall-1e-9 {
			t.Errorf("%s recall %.3f below minwise64 %.3f — truncation lost candidates",
				narrow, seen[narrow].Recall, seen["minwise64"].Recall)
		}
	}
	if m16, m32 := seen["minwise16"], seen["minwise32"]; m16.Precision < m32.Precision-1e-9 || m16.Recall < m32.Recall-1e-9 {
		t.Errorf("minwise16 P=%.3f R=%.3f below minwise32's P=%.3f R=%.3f", m16.Precision, m16.Recall, m32.Precision, m32.Recall)
	}
	// The bytes axis: each narrowing must report exactly width/8 of the
	// full store, and minwise16 its lead high halves besides (576 of 2 048
	// bytes at m = 256, ≤ 0.5×).
	full := seen["minwise64"].BytesPerDomain
	for name, frac := range map[string]float64{"minwise32": 0.5, "minwise16": 0.25 * 288 / 256} {
		if got := seen[name].BytesPerDomain; got != full*frac {
			t.Errorf("%s bytes/domain %.1f, want %.1f", name, got, full*frac)
		}
	}
}

// TestFig4SketchVariants runs Fig. 4 with b-bit ensemble systems riding
// along and checks the superset property per threshold: a narrow store can
// only add candidates, so its recall is never below the full-width
// ensemble's.
func TestFig4SketchVariants(t *testing.T) {
	cfg := smallAcc()
	cfg.Sketches = []core.SketchBackend{core.Minwise32, core.Minwise16}
	rows, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 base systems + 2 sketch variants, × 3 thresholds.
	if len(rows) != 18 {
		t.Fatalf("got %d rows, want 18", len(rows))
	}
	for _, tStar := range cfg.Thresholds {
		at := rowsBySystem(rows, tStar)
		full := at["LSH Ensemble (32)"]
		for _, name := range []string{"LSH Ensemble (32, minwise32)", "LSH Ensemble (32, minwise16)"} {
			v, ok := at[name]
			if !ok {
				t.Fatalf("missing system %q at t=%v", name, tStar)
			}
			if v.Recall < full.Recall-1e-9 {
				t.Errorf("%s recall %.3f < full-width %.3f at t=%v", name, v.Recall, full.Recall, tStar)
			}
		}
	}
}

// TestSystemsReportTheirSketch pins the width each figure system is built
// at, which no answer of the fixtures tells apart: 32-bit minima collide by
// chance nowhere among their domains. The Baseline, Asym and every ensemble
// runAccuracy scores report minwise64, a b-bit variant its own backend, and
// each frontier system the signature bytes of its own width (minwise16's lead
// high halves included).
func TestSystemsReportTheirSketch(t *testing.T) {
	cfg := AccuracyConfig{
		NumDomains: 300, NumQueries: 5, NumHash: 64, RMax: 4, Partitions: []int{1, 8},
		Sketches:   []core.SketchBackend{core.Minwise32, core.Minwise16},
		Thresholds: []float64{0.5}, Seed: 3,
	}.withDefaults()
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: cfg.NumDomains, Seed: cfg.Seed})
	recs := datagen.Records(corpus, minhash.NewHasher(cfg.NumHash, cfg.Seed^0x5eed))
	systems, err := buildSystems(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"Baseline": "minwise64", "Asym": "minwise64"}
	for _, n := range cfg.Partitions {
		want[fmt.Sprintf("LSH Ensemble (%d)", n)] = "minwise64"
	}
	for _, sb := range cfg.Sketches {
		want[fmt.Sprintf("LSH Ensemble (8, %s)", sb)] = sb.String()
	}
	if len(systems) != len(want) {
		t.Fatalf("%d systems, want %d", len(systems), len(want))
	}
	for _, sys := range systems {
		if got := sys.idx.Stats().Sketch; got != want[sys.name] {
			t.Errorf("%s is built at %s, want %s", sys.name, got, want[sys.name])
		}
	}

	rows, err := RunSketchFrontier(SketchConfig{AccuracyConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	widths := map[string]int{"minwise64": 64, "minwise32": 32, "minwise16": 16}
	seen := 0
	for _, r := range rows {
		w, ok := widths[r.System]
		if !ok {
			continue // the KMV scan
		}
		seen++
		if want := float64(lshforest.RowLen(cfg.NumHash, cfg.RMax, w/8) * w / 8); r.BytesPerDomain != want {
			t.Errorf("frontier system %s stores %v signature bytes per domain, %v at its own width",
				r.System, r.BytesPerDomain, want)
		}
	}
	if seen != len(widths) {
		t.Fatalf("%d frontier rows of the minwise widths, want %d", seen, len(widths))
	}
}

// TestFig9SketchBackend: the perf sweep must run under a narrow backend and
// return the same row shape.
func TestFig9SketchBackend(t *testing.T) {
	rows, err := RunFig9(PerfConfig{
		NumDomains: 3000, Steps: 1, NumQueries: 10,
		NumHash: 128, RMax: 4, Partitions: []int{8}, Seed: 1,
		Sketch: core.Minwise16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].IndexingTime <= 0 || rows[0].MeanQueryTime <= 0 {
		t.Fatalf("non-positive timing: %+v", rows[0])
	}
}
