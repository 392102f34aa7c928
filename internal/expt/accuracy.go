// Package expt contains one driver per table and figure of the paper's
// evaluation (Section 6). Each driver builds its workload with datagen,
// runs the systems under test (Baseline = single-partition MinHash LSH,
// Asym = Asymmetric Minwise Hashing, LSH Ensemble with 8/16/32 partitions),
// and returns typed rows that cmd/experiments renders and bench_test.go
// wraps. Every system but the KMV scan, Baseline and Asym included, is the
// live index that ships (internal/live), built over the records (Asym's
// padded) into one sealed segment and queried through live.Index.Query; the
// tests hold the ensembles' answers to core.Build's and Asym's to a plain LSH
// Forest over the padded signatures. Scales default far below the paper's (so
// the suite runs on a laptop in minutes) and are flag-controlled up to paper
// scale; the comparative shape of the results is what the reproduction
// targets.
package expt

import (
	"fmt"
	"sort"

	"lshensemble/internal/core"
	"lshensemble/internal/datagen"
	"lshensemble/internal/domain"
	"lshensemble/internal/eval"
	"lshensemble/internal/exact"
	"lshensemble/internal/expt/asym"
	"lshensemble/internal/expt/baseline"
	"lshensemble/internal/expt/stats"
	"lshensemble/internal/live"
	"lshensemble/internal/minhash"
	"lshensemble/internal/partition"
)

// DefaultThresholds is the paper's sweep: 0.05 to 1.00 in steps of 0.05.
func DefaultThresholds() []float64 {
	var ts []float64
	for i := 1; i <= 20; i++ {
		ts = append(ts, float64(i)*0.05)
	}
	return ts
}

// AccuracyConfig parameterizes the accuracy experiments (Fig. 4–8).
// Zero values select defaults sized for interactive runs.
type AccuracyConfig struct {
	NumDomains int       // default 4000 (paper: 65,533)
	NumQueries int       // default 100 (paper: 3,000)
	NumHash    int       // default 256 (Table 3)
	RMax       int       // default 8
	Partitions []int     // ensemble variants; default {8, 16, 32}
	Thresholds []float64 // default DefaultThresholds()
	Seed       uint64
	// Sketches adds b-bit ensemble variants (at the largest partition
	// count) beyond the paper's full-width store — "LSH Ensemble (32,
	// minwise16)" style systems. Empty keeps the paper's system set.
	Sketches []core.SketchBackend
}

func (c AccuracyConfig) withDefaults() AccuracyConfig {
	if c.NumDomains == 0 {
		c.NumDomains = 4000
	}
	if c.NumQueries == 0 {
		c.NumQueries = 100
	}
	if c.NumHash == 0 {
		c.NumHash = 256
	}
	if c.RMax == 0 {
		c.RMax = 8
	}
	if len(c.Partitions) == 0 {
		c.Partitions = []int{8, 16, 32}
	}
	if len(c.Thresholds) == 0 {
		c.Thresholds = DefaultThresholds()
	}
	return c
}

// AccuracyRow is one (system, threshold) cell of Fig. 4/6/7.
type AccuracyRow struct {
	System        string
	Threshold     float64
	Precision     float64
	Recall        float64
	F1            float64
	F05           float64
	EmptyFraction float64
}

func (r AccuracyRow) String() string {
	return fmt.Sprintf("%-18s t*=%.2f  P=%.3f R=%.3f F1=%.3f F0.5=%.3f empty=%.2f",
		r.System, r.Threshold, r.Precision, r.Recall, r.F1, r.F05, r.EmptyFraction)
}

// buildEnsemble builds an LSH Ensemble the way the product does: a live
// index over the records, sealed into one segment, with no background
// compactor.
func buildEnsemble(recs []domain.Record, opts core.Options) (*live.Index, error) {
	return live.Build(recs, live.Options{Options: opts, ManualCompaction: true})
}

// system is a named system under test: its answer to query qi (an index
// into the corpus) at threshold t*.
type system struct {
	name  string
	idx   *live.Index // nil for the KMV scan
	query func(qi int, tStar float64) []string
}

// indexed makes a live index a system over recs: Baseline, Asym, every
// ensemble and Fig. 8's morph.
func indexed(name string, idx *live.Index, recs []domain.Record) system {
	return system{name, idx, func(qi int, tStar float64) []string {
		return idx.Query(recs[qi].Sig, recs[qi].Size, tStar)
	}}
}

// buildSystems constructs Baseline, Asym, and the ensemble variants.
func buildSystems(recs []domain.Record, cfg AccuracyConfig) ([]system, error) {
	var systems []system
	b, err := baseline.Build(recs, cfg.NumHash, cfg.RMax)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	systems = append(systems, indexed("Baseline", b, recs))
	a, err := asym.Build(recs, cfg.NumHash, cfg.RMax)
	if err != nil {
		return nil, fmt.Errorf("asym: %w", err)
	}
	systems = append(systems, indexed("Asym", a, recs))
	for _, n := range cfg.Partitions {
		e, err := buildEnsemble(recs, core.Options{
			NumHash: cfg.NumHash, RMax: cfg.RMax, NumPartitions: n, Sketch: core.Minwise64,
		})
		if err != nil {
			return nil, fmt.Errorf("ensemble(%d): %w", n, err)
		}
		systems = append(systems, indexed(fmt.Sprintf("LSH Ensemble (%d)", n), e, recs))
	}
	// b-bit variants ride on the largest partition count: the sweep varies
	// signature bytes against a fixed (best) partitioning.
	parts := cfg.Partitions[len(cfg.Partitions)-1]
	for _, sb := range cfg.Sketches {
		if sb == core.Minwise64 {
			continue // already present as the plain ensemble systems
		}
		e, err := buildEnsemble(recs, core.Options{
			NumHash: cfg.NumHash, RMax: cfg.RMax, NumPartitions: parts, Sketch: sb,
		})
		if err != nil {
			return nil, fmt.Errorf("ensemble(%d, %s): %w", parts, sb, err)
		}
		systems = append(systems, indexed(fmt.Sprintf("LSH Ensemble (%d, %s)", parts, sb), e, recs))
	}
	return systems, nil
}

// runAccuracy evaluates the systems over the query set across thresholds.
// Ground-truth containment scores are computed once per query and reused
// for every threshold.
func runAccuracy(corpus *datagen.Corpus, queries []int, systems []system,
	thresholds []float64) []AccuracyRow {
	engine := exact.Build(datagen.ExactDomains(corpus))
	queryValues := make([][]uint64, len(queries))
	for i, qi := range queries {
		queryValues[i] = corpus.Domains[qi].Values
	}
	scores := engine.ScoresBatch(queryValues, 0)
	var rows []AccuracyRow
	for _, tStar := range thresholds {
		truths := make([]map[string]bool, len(queries))
		for i := range queries {
			truth := make(map[string]bool)
			for id, s := range scores[i] {
				if s >= tStar {
					truth[engine.Key(id)] = true
				}
			}
			truths[i] = truth
		}
		for _, sys := range systems {
			var avg eval.Averager
			for i, qi := range queries {
				p, r, empty := eval.PR(sys.query(qi, tStar), truths[i])
				avg.Add(p, r, empty)
			}
			rows = append(rows, AccuracyRow{
				System:        sys.name,
				Threshold:     tStar,
				Precision:     avg.Precision(),
				Recall:        avg.Recall(),
				F1:            avg.F1(),
				F05:           avg.F05(),
				EmptyFraction: avg.EmptyFraction(),
			})
		}
	}
	return rows
}

// RunFig4 reproduces Fig. 4: accuracy versus containment threshold on the
// open-data-like corpus for all systems.
func RunFig4(cfg AccuracyConfig) ([]AccuracyRow, error) {
	cfg = cfg.withDefaults()
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: cfg.NumDomains, Seed: cfg.Seed})
	recs := datagen.Records(corpus, minhash.NewHasher(cfg.NumHash, cfg.Seed^0x5eed))
	systems, err := buildSystems(recs, cfg)
	if err != nil {
		return nil, err
	}
	queries := datagen.SampleQueries(corpus, cfg.NumQueries, cfg.Seed)
	return runAccuracy(corpus, queries, systems, cfg.Thresholds), nil
}

// RunFig6 reproduces Fig. 6: accuracy for queries from the largest size
// decile (the regime where the q ≪ max-size assumption weakens).
func RunFig6(cfg AccuracyConfig) ([]AccuracyRow, error) {
	return runDecile(cfg, 9)
}

// RunFig7 reproduces Fig. 7: accuracy for queries from the smallest decile.
func RunFig7(cfg AccuracyConfig) ([]AccuracyRow, error) {
	return runDecile(cfg, 0)
}

func runDecile(cfg AccuracyConfig, decile int) ([]AccuracyRow, error) {
	cfg = cfg.withDefaults()
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: cfg.NumDomains, Seed: cfg.Seed})
	recs := datagen.Records(corpus, minhash.NewHasher(cfg.NumHash, cfg.Seed^0x5eed))
	systems, err := buildSystems(recs, cfg)
	if err != nil {
		return nil, err
	}
	queries := datagen.QueriesBySizeDecile(corpus, decile, cfg.NumQueries, cfg.Seed)
	return runAccuracy(corpus, queries, systems, cfg.Thresholds), nil
}

// SkewRow is one (subset, system) cell of Fig. 5.
type SkewRow struct {
	Skewness   float64
	NumDomains int
	System     string
	Precision  float64
	Recall     float64
	F1         float64
	F05        float64
}

func (r SkewRow) String() string {
	return fmt.Sprintf("skew=%6.2f n=%-6d %-18s P=%.3f R=%.3f F1=%.3f F0.5=%.3f",
		r.Skewness, r.NumDomains, r.System, r.Precision, r.Recall, r.F1, r.F05)
}

// Fig5Config parameterizes the skewness sweep.
type Fig5Config struct {
	AccuracyConfig
	NumSubsets int     // default 10 (paper: 20)
	Threshold  float64 // default 0.5 (Table 3 bold default)
}

// RunFig5 reproduces Fig. 5: accuracy versus domain-size skewness over
// nested size-interval subsets of the corpus.
func RunFig5(cfg Fig5Config) ([]SkewRow, error) {
	acc := cfg.AccuracyConfig.withDefaults()
	if cfg.NumSubsets == 0 {
		cfg.NumSubsets = 10
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.5
	}
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: acc.NumDomains, Seed: acc.Seed})
	recs := datagen.Records(corpus, minhash.NewHasher(acc.NumHash, acc.Seed^0x5eed))
	subsets := datagen.NestedSizeSubsets(corpus, cfg.NumSubsets)

	var rows []SkewRow
	for _, subset := range subsets {
		subCorpus := &datagen.Corpus{}
		subRecs := make([]domain.Record, 0, len(subset))
		for _, i := range subset {
			subCorpus.Domains = append(subCorpus.Domains, corpus.Domains[i])
			subRecs = append(subRecs, recs[i])
		}
		skew := stats.SkewnessInts(subCorpus.Sizes())
		systems, err := buildSystems(subRecs, acc)
		if err != nil {
			return nil, err
		}
		nq := acc.NumQueries
		if nq > len(subset) {
			nq = len(subset)
		}
		queries := datagen.SampleQueries(subCorpus, nq, acc.Seed)
		accRows := runAccuracy(subCorpus, queries, systems, []float64{cfg.Threshold})
		for _, ar := range accRows {
			rows = append(rows, SkewRow{
				Skewness:   skew,
				NumDomains: len(subset),
				System:     ar.System,
				Precision:  ar.Precision,
				Recall:     ar.Recall,
				F1:         ar.F1,
				F05:        ar.F05,
			})
		}
	}
	return rows, nil
}

// MorphRow is one partition-drift point of Fig. 8.
type MorphRow struct {
	Lambda    float64 // 0 = equi-depth, 1 = equi-width
	StdDev    float64 // std. dev. of partition sizes (the paper's x-axis)
	Precision float64
	Recall    float64
	F1        float64
	F05       float64
}

func (r MorphRow) String() string {
	return fmt.Sprintf("lambda=%.3f stddev=%8.1f  P=%.3f R=%.3f F1=%.3f F0.5=%.3f",
		r.Lambda, r.StdDev, r.Precision, r.Recall, r.F1, r.F05)
}

// Fig8Config parameterizes the partition-drift experiment.
type Fig8Config struct {
	AccuracyConfig
	NumPartitions int       // default 32 (the paper's Fig. 8 uses 32)
	Lambdas       []float64 // default 0, 0.125, …, 1
	Threshold     float64   // default 0.5
}

// RunFig8 reproduces Fig. 8: accuracy versus the standard deviation of
// partition sizes as the partitioning morphs from equi-depth to equi-width.
func RunFig8(cfg Fig8Config) ([]MorphRow, error) {
	acc := cfg.AccuracyConfig.withDefaults()
	if cfg.NumPartitions == 0 {
		cfg.NumPartitions = 32
	}
	if len(cfg.Lambdas) == 0 {
		for i := 0; i <= 8; i++ {
			cfg.Lambdas = append(cfg.Lambdas, float64(i)/8)
		}
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.5
	}
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: acc.NumDomains, Seed: acc.Seed})
	recs := datagen.Records(corpus, minhash.NewHasher(acc.NumHash, acc.Seed^0x5eed))
	queries := datagen.SampleQueries(corpus, acc.NumQueries, acc.Seed)

	var rows []MorphRow
	for _, lambda := range cfg.Lambdas {
		lambda := lambda
		pf := func(sizes []int, n int) []partition.Partition {
			return partition.Morph(sizes, n, lambda)
		}
		idx, err := buildEnsemble(recs, core.Options{
			NumHash: acc.NumHash, RMax: acc.RMax, Sketch: core.Minwise64,
			NumPartitions: cfg.NumPartitions, Partitioner: pf,
		})
		if err != nil {
			return nil, err
		}
		// The partitioning the index was built with: the partitioner is a
		// pure function of the record sizes, the domain sizes in order.
		sd := partition.CountStdDev(pf(corpus.Sizes(), cfg.NumPartitions))
		accRows := runAccuracy(corpus, queries,
			[]system{indexed("morph", idx, recs)}, []float64{cfg.Threshold})
		ar := accRows[0]
		rows = append(rows, MorphRow{
			Lambda:    lambda,
			StdDev:    sd,
			Precision: ar.Precision,
			Recall:    ar.Recall,
			F1:        ar.F1,
			F05:       ar.F05,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].StdDev < rows[j].StdDev })
	return rows, nil
}
