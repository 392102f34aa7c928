package expt

import (
	"fmt"
	"strings"

	"lshensemble/internal/datagen"
	"lshensemble/internal/expt/asym"
	"lshensemble/internal/expt/stats"
	"lshensemble/internal/tune"
)

// HistRow is one log₂ bucket of a Fig. 1 histogram.
type HistRow struct {
	Corpus string
	Lo, Hi int
	Count  int
}

func (r HistRow) String() string {
	bar := strings.Repeat("#", barLen(r.Count))
	return fmt.Sprintf("%-9s [%7d, %7d)  %7d %s", r.Corpus, r.Lo, r.Hi, r.Count, bar)
}

func barLen(count int) int {
	n := 0
	for count > 0 {
		n++
		count >>= 1
	}
	return n
}

// Fig1Config parameterizes the size-distribution histograms.
type Fig1Config struct {
	OpenDataDomains int // default 20000
	WebTableDomains int // default 50000
	Seed            uint64
}

// RunFig1 reproduces Fig. 1: log-log domain-size histograms of the
// open-data-like and web-table-like corpora, plus the MLE power-law
// exponent of each (the paper eyeballs the slope; we report it).
func RunFig1(cfg Fig1Config) (rows []HistRow, alphaOpen, alphaWeb float64) {
	if cfg.OpenDataDomains == 0 {
		cfg.OpenDataDomains = 20000
	}
	if cfg.WebTableDomains == 0 {
		cfg.WebTableDomains = 50000
	}
	od := datagen.OpenData(datagen.OpenDataConfig{NumDomains: cfg.OpenDataDomains, Seed: cfg.Seed})
	wt := datagen.WebTable(datagen.WebTableConfig{NumDomains: cfg.WebTableDomains, Seed: cfg.Seed})
	for _, b := range stats.LogHistogram(od.Sizes()) {
		rows = append(rows, HistRow{Corpus: "opendata", Lo: b.Lo, Hi: b.Hi, Count: b.Count})
	}
	for _, b := range stats.LogHistogram(wt.Sizes()) {
		rows = append(rows, HistRow{Corpus: "webtable", Lo: b.Lo, Hi: b.Hi, Count: b.Count})
	}
	return rows, stats.PowerLawAlphaMLE(od.Sizes(), 10), stats.PowerLawAlphaMLE(wt.Sizes(), 5)
}

// Fig2Row is one containment point of Fig. 2's threshold-conversion plot.
type Fig2Row struct {
	T   float64 // containment
	SxQ float64 // sˆx,q(t): exact Jaccard at size x
	SuQ float64 // sˆu,q(t): conservative Jaccard at upper bound u
}

// RunFig2 reproduces Fig. 2 with the paper's parameters (u = 3, x = 1,
// q = 1, t* = 0.5): the two conversion curves and the effective threshold.
func RunFig2() (rows []Fig2Row, tStar, sStar, tx float64) {
	const u, x, q = 3.0, 1.0, 1.0
	tStar = 0.5
	for i := 0; i <= 40; i++ {
		t := float64(i) / 40
		rows = append(rows, Fig2Row{
			T:   t,
			SxQ: tune.ContainmentToJaccard(t, x, q),
			SuQ: tune.ContainmentToJaccard(t, u, q),
		})
	}
	sStar = tune.ConservativeJaccardThreshold(tStar, u, q)
	tx = tune.EffectiveContainmentThreshold(tStar, x, q, u)
	return rows, tStar, sStar, tx
}

// Fig3Row is one containment point of the candidate-probability curve.
type Fig3Row struct {
	T float64
	P float64
}

// RunFig3 reproduces Fig. 3 with the paper's parameters (x = 10, q = 5,
// b = 256, r = 4, t* = 0.5): the probability curve and the FP/FN areas
// under it.
func RunFig3() (rows []Fig3Row, fp, fn float64) {
	const x, q, tStar = 10.0, 5.0, 0.5
	const b, r = 256, 4
	for i := 0; i <= 50; i++ {
		t := float64(i) / 50
		rows = append(rows, Fig3Row{T: t, P: tune.CandidateProbability(t, x, q, b, r)})
	}
	return rows, tune.FalsePositiveArea(x, q, tStar, b, r), tune.FalseNegativeArea(x, q, tStar, b, r)
}

// Fig10Row is one point of the asymmetric-hashing analysis.
type Fig10Row struct {
	M         int     // padded size
	PFullCont float64 // P(t=1 | M, q, b=256, r=1)
	MStar     int     // min #hashes to keep P ≥ 0.5
}

func (r Fig10Row) String() string {
	return fmt.Sprintf("M=%-7d P(t=1)=%.4f m*=%d", r.M, r.PFullCont, r.MStar)
}

// RunFig10 reproduces Fig. 10: the recall collapse of Asymmetric Minwise
// Hashing as the padded size M grows (left plot) and the hash budget m*
// needed to resist it (right plot), with q = 1 as in the paper.
func RunFig10() []Fig10Row {
	const q = 1.0
	var rows []Fig10Row
	for m := 250; m <= 8000; m += 250 {
		rows = append(rows, Fig10Row{
			M:         m,
			PFullCont: tune.CandidateProbability(1, float64(m), q, 256, 1),
			MStar:     asym.MinHashesForRecall(float64(m), q, 0.5),
		})
	}
	return rows
}

// Tab3Row is one experimental variable of Table 3.
type Tab3Row struct {
	Variable string
	Value    string
}

// RunTab3 prints the active experimental configuration in the shape of the
// paper's Table 3.
func RunTab3(acc AccuracyConfig, perf PerfConfig) []Tab3Row {
	acc = acc.withDefaults()
	perf = perf.withDefaults()
	return []Tab3Row{
		{"Num. of Hash Functions in MinHash (m)", fmt.Sprint(acc.NumHash)},
		{"Containment Threshold (t*)", fmt.Sprintf("%.2f - %.2f", acc.Thresholds[0], acc.Thresholds[len(acc.Thresholds)-1])},
		{"Num. of Domains |D| (accuracy)", fmt.Sprint(acc.NumDomains)},
		{"Num. of Domains |D| (performance)", fmt.Sprint(perf.NumDomains)},
		{"Num. of Queries", fmt.Sprint(acc.NumQueries)},
		{"Num. of Partitions (n)", fmt.Sprint(acc.Partitions)},
		{"Forest depth (rMax)", fmt.Sprint(acc.RMax)},
		{"Shards (simulated nodes)", fmt.Sprint(perf.Shards)},
	}
}
