package expt

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"lshensemble/internal/core"
	"lshensemble/internal/datagen"
	"lshensemble/internal/minhash"
)

// smallAcc is a fast accuracy config for CI.
func smallAcc() AccuracyConfig {
	return AccuracyConfig{
		NumDomains: 1200,
		NumQueries: 40,
		NumHash:    128,
		RMax:       4,
		Partitions: []int{8, 32},
		Thresholds: []float64{0.25, 0.5, 0.75},
		Seed:       1,
	}
}

func rowsBySystem(rows []AccuracyRow, tStar float64) map[string]AccuracyRow {
	out := map[string]AccuracyRow{}
	for _, r := range rows {
		if math.Abs(r.Threshold-tStar) < 1e-9 {
			out[r.System] = r
		}
	}
	return out
}

// TestSystemsAnswerLikeCoreBuild holds the figures to their reference path:
// every ensemble system buildSystems returns — the Baseline, each partition
// count, each sketch backend — answers every (query, threshold) with exactly
// the key set core.Build + QueryIDsAppend gives under the same options.
func TestSystemsAnswerLikeCoreBuild(t *testing.T) {
	cfg := AccuracyConfig{
		NumDomains: 600, NumQueries: 20, NumHash: 64, RMax: 4,
		Partitions: []int{1, 8, 16},
		Sketches:   []core.SketchBackend{core.Minwise32, core.Minwise16, core.Minwise8},
		Seed:       3,
	}.withDefaults()
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: cfg.NumDomains, Seed: cfg.Seed})
	recs := datagen.Records(corpus, minhash.NewHasher(cfg.NumHash, cfg.Seed^0x5eed))
	queries := datagen.SampleQueries(corpus, cfg.NumQueries, cfg.Seed)
	systems, err := buildSystems(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]core.Options{"Baseline": {NumPartitions: 1, Sketch: core.Minwise64}}
	for _, n := range cfg.Partitions {
		want[fmt.Sprintf("LSH Ensemble (%d)", n)] = core.Options{NumPartitions: n, Sketch: core.Minwise64}
	}
	parts := cfg.Partitions[len(cfg.Partitions)-1]
	for _, sb := range cfg.Sketches {
		want[fmt.Sprintf("LSH Ensemble (%d, %s)", parts, sb)] = core.Options{NumPartitions: parts, Sketch: sb}
	}
	checked := 0
	for _, sys := range systems {
		opts, ok := want[sys.name]
		if !ok {
			continue // Asym is no ensemble
		}
		opts.NumHash, opts.RMax = cfg.NumHash, cfg.RMax
		ref, err := core.Build(recs, opts)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		for _, qi := range queries {
			r := recs[qi]
			for _, tStar := range cfg.Thresholds {
				ids, err := ref.QueryIDsAppend(nil, r.Sig, r.Size, tStar)
				if err != nil {
					t.Fatal(err)
				}
				wantKeys := make([]string, len(ids))
				for i, id := range ids {
					wantKeys[i] = ref.Key(id)
				}
				got := slices.Clone(sys.idx.Query(r.Sig, r.Size, tStar))
				slices.Sort(wantKeys)
				slices.Sort(got)
				if !slices.Equal(got, wantKeys) {
					t.Fatalf("%s, query %s at t*=%.2f: %d keys, core.Build gives %d",
						sys.name, r.Key, tStar, len(got), len(wantKeys))
				}
			}
		}
		checked++
	}
	if checked != len(want) {
		t.Fatalf("checked %d systems, want %d", checked, len(want))
	}
}

func TestFig4Shape(t *testing.T) {
	rows, err := RunFig4(smallAcc())
	if err != nil {
		t.Fatal(err)
	}
	// 4 systems × 3 thresholds.
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	for _, r := range rows {
		if r.Precision < 0 || r.Precision > 1 || r.Recall < 0 || r.Recall > 1 {
			t.Fatalf("metric out of range: %+v", r)
		}
	}
	at := rowsBySystem(rows, 0.5)
	// Paper claim 1: partitioning improves precision over the baseline.
	if at["LSH Ensemble (32)"].Precision <= at["Baseline"].Precision {
		t.Fatalf("ensemble precision %v should beat baseline %v",
			at["LSH Ensemble (32)"].Precision, at["Baseline"].Precision)
	}
	// Paper claim 2: ensemble recall stays high.
	if at["LSH Ensemble (32)"].Recall < 0.7 {
		t.Fatalf("ensemble recall %v too low", at["LSH Ensemble (32)"].Recall)
	}
	// Paper claim 3: baseline recall is high (it is recall-conservative).
	if at["Baseline"].Recall < 0.8 {
		t.Fatalf("baseline recall %v too low", at["Baseline"].Recall)
	}
	// Paper claim 4: asym recall falls well below the ensemble's on skewed
	// data at mid/high thresholds.
	if at["Asym"].Recall >= at["LSH Ensemble (32)"].Recall {
		t.Fatalf("asym recall %v should trail ensemble %v on skewed corpus",
			at["Asym"].Recall, at["LSH Ensemble (32)"].Recall)
	}
}

func TestFig4MorePartitionsMorePrecision(t *testing.T) {
	rows, err := RunFig4(smallAcc())
	if err != nil {
		t.Fatal(err)
	}
	// Averaged across thresholds, 32 partitions ≥ 8 partitions on precision.
	avg := func(system string) float64 {
		s, n := 0.0, 0
		for _, r := range rows {
			if r.System == system {
				s += r.Precision
				n++
			}
		}
		return s / float64(n)
	}
	if avg("LSH Ensemble (32)") < avg("LSH Ensemble (8)")-0.02 {
		t.Fatalf("precision should not degrade with more partitions: 32→%v 8→%v",
			avg("LSH Ensemble (32)"), avg("LSH Ensemble (8)"))
	}
}

func TestFig6And7Run(t *testing.T) {
	cfg := smallAcc()
	cfg.Thresholds = []float64{0.5}
	large, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(large) != 4 || len(small) != 4 {
		t.Fatalf("row counts: %d, %d", len(large), len(small))
	}
	// Recall must stay high in both regimes for the ensemble (paper: "the
	// recall stays high").
	for _, rows := range [][]AccuracyRow{large, small} {
		at := rowsBySystem(rows, 0.5)
		if at["LSH Ensemble (32)"].Recall < 0.6 {
			t.Fatalf("ensemble recall %v too low in decile workload",
				at["LSH Ensemble (32)"].Recall)
		}
	}
}

func TestFig5SkewSweep(t *testing.T) {
	cfg := Fig5Config{AccuracyConfig: smallAcc(), NumSubsets: 5}
	cfg.NumQueries = 25
	rows, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*4 {
		t.Fatalf("got %d rows, want 20", len(rows))
	}
	// Skewness must be non-decreasing along the sweep.
	var prev float64 = -1e18
	for i := 0; i < len(rows); i += 4 {
		if rows[i].Skewness < prev-1e-9 {
			t.Fatalf("skewness not non-decreasing at row %d", i)
		}
		prev = rows[i].Skewness
	}
	// At the most skewed subset, ensemble(32) precision ≥ baseline.
	last := rows[len(rows)-4:]
	var base, ens SkewRow
	for _, r := range last {
		switch r.System {
		case "Baseline":
			base = r
		case "LSH Ensemble (32)":
			ens = r
		}
	}
	if ens.Precision < base.Precision {
		t.Fatalf("at max skew, ensemble precision %v < baseline %v", ens.Precision, base.Precision)
	}
}

func TestFig8Morph(t *testing.T) {
	cfg := Fig8Config{AccuracyConfig: smallAcc(), NumPartitions: 16,
		Lambdas: []float64{0, 0.5, 1}}
	cfg.NumQueries = 25
	rows, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Rows are sorted by stddev; the equi-width end must have larger
	// stddev than the equi-depth end.
	if rows[0].StdDev >= rows[len(rows)-1].StdDev {
		t.Fatalf("stddev not increasing: %v .. %v", rows[0].StdDev, rows[len(rows)-1].StdDev)
	}
	for _, r := range rows {
		if r.Recall < 0.5 {
			t.Fatalf("recall collapsed in morph: %+v", r)
		}
	}
}

func TestFig9Performance(t *testing.T) {
	rows, err := RunFig9(PerfConfig{
		NumDomains: 4000, Steps: 2, NumQueries: 10,
		NumHash: 128, RMax: 4, Partitions: []int{8, 16}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.IndexingTime <= 0 || r.MeanQueryTime <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
	}
}

func TestTab4Sharded(t *testing.T) {
	rows, err := RunTab4(PerfConfig{
		NumDomains: 3000, NumQueries: 10, NumHash: 128, RMax: 4,
		Partitions: []int{8}, Shards: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].System != "Baseline" {
		t.Fatalf("rows: %+v", rows)
	}
	// Partitioning improves selectivity: the ensemble returns no more
	// candidates than the baseline (paper: "the index becomes more
	// selective as the number of partitions increases").
	if rows[1].MeanResults > rows[0].MeanResults {
		t.Fatalf("ensemble candidates %v > baseline %v", rows[1].MeanResults, rows[0].MeanResults)
	}
}

func TestFig1Histograms(t *testing.T) {
	rows, alphaOpen, alphaWeb := RunFig1(Fig1Config{OpenDataDomains: 5000, WebTableDomains: 5000, Seed: 1})
	if len(rows) == 0 {
		t.Fatal("no histogram rows")
	}
	if alphaOpen < 1.5 || alphaOpen > 2.5 {
		t.Fatalf("open-data alpha %v out of band", alphaOpen)
	}
	if alphaWeb < 2.0 || alphaWeb > 2.9 {
		t.Fatalf("web-table alpha %v out of band", alphaWeb)
	}
	// Histogram counts must be decreasing overall (power law): first bucket
	// with data dwarfs the last.
	var first, last int
	for _, r := range rows {
		if r.Corpus == "opendata" {
			if first == 0 {
				first = r.Count
			}
			last = r.Count
		}
	}
	if first <= last {
		t.Fatalf("power-law histogram should decay: first %d last %d", first, last)
	}
}

func TestFig2Conversion(t *testing.T) {
	rows, tStar, sStar, tx := RunFig2()
	if len(rows) != 41 {
		t.Fatalf("got %d rows", len(rows))
	}
	// sˆu,q ≤ sˆx,q pointwise (u ≥ x).
	for _, r := range rows {
		if r.SuQ > r.SxQ+1e-12 {
			t.Fatalf("conservative curve above exact at t=%v", r.T)
		}
	}
	// Known values: s* = 0.5/(3+1-0.5) = 1/7; tx = (1+1)·0.5/(3+1) = 0.25.
	if math.Abs(sStar-1.0/7) > 1e-12 {
		t.Fatalf("s* = %v, want 1/7", sStar)
	}
	if math.Abs(tx-0.25) > 1e-12 {
		t.Fatalf("tx = %v, want 0.25", tx)
	}
	if tStar != 0.5 {
		t.Fatalf("tStar = %v", tStar)
	}
}

func TestFig3Probability(t *testing.T) {
	rows, fp, fn := RunFig3()
	if len(rows) != 51 {
		t.Fatalf("got %d rows", len(rows))
	}
	if fp <= 0 || fn <= 0 {
		t.Fatalf("FP/FN areas must be positive: %v, %v", fp, fn)
	}
	if fp > 0.5 || fn > 0.5 {
		t.Fatalf("FP/FN areas implausibly large: %v, %v", fp, fn)
	}
	// Curve monotone increasing.
	for i := 1; i < len(rows); i++ {
		if rows[i].P < rows[i-1].P-1e-12 {
			t.Fatalf("P not monotone at %d", i)
		}
	}
}

func TestFig10AsymAnalysis(t *testing.T) {
	rows := RunFig10()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// P decreasing, m* increasing with M.
	for i := 1; i < len(rows); i++ {
		if rows[i].PFullCont > rows[i-1].PFullCont+1e-12 {
			t.Fatalf("P not decreasing at M=%d", rows[i].M)
		}
		if rows[i].MStar < rows[i-1].MStar {
			t.Fatalf("m* not increasing at M=%d", rows[i].M)
		}
	}
	// At the largest M with only 256 hashes, recall probability is tiny —
	// the recall collapse of Fig. 10 left.
	if last := rows[len(rows)-1]; last.PFullCont > 0.3 {
		t.Fatalf("P(t=1) at M=%d should be small, got %v", last.M, last.PFullCont)
	}
}

func TestTab3Config(t *testing.T) {
	rows := RunTab3(AccuracyConfig{}, PerfConfig{})
	if len(rows) < 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Variable == "" || r.Value == "" {
			t.Fatalf("blank row: %+v", r)
		}
	}
}

func TestDefaultThresholds(t *testing.T) {
	ts := DefaultThresholds()
	if len(ts) != 20 || math.Abs(ts[0]-0.05) > 1e-12 || math.Abs(ts[19]-1.0) > 1e-12 {
		t.Fatalf("thresholds wrong: %v", ts)
	}
}
