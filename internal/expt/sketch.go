package expt

import (
	"fmt"
	"sort"

	"lshensemble/internal/core"
	"lshensemble/internal/datagen"
	"lshensemble/internal/minhash"
)

// SketchConfig parameterizes the accuracy-vs-bytes frontier experiment: the
// Fig. 4 workload re-run under every sketch backend, reporting each system's
// per-domain signature footprint next to its precision and recall. This is
// the measurement behind the repo's compact-sketch claims (the frontier
// table in the root package comment).
type SketchConfig struct {
	AccuracyConfig
	// NumPartitions is the ensemble partition count every backend uses
	// (one variable at a time: the sweep varies bytes, not partitioning).
	// Default 16.
	NumPartitions int
	// KMVK is the k parameter of the KMV comparator; default NumHash/2 so
	// its footprint lands below minwise16's on the frontier.
	KMVK int
}

func (c SketchConfig) withDefaults() SketchConfig {
	c.AccuracyConfig = c.AccuracyConfig.withDefaults()
	if c.NumPartitions == 0 {
		c.NumPartitions = 16
	}
	if c.KMVK == 0 {
		c.KMVK = c.NumHash / 2
	}
	return c
}

// FrontierRow is one (backend, threshold) point of the accuracy-vs-bytes
// frontier.
type FrontierRow struct {
	System         string  // backend name ("minwise64", ..., "kmv")
	BytesPerDomain float64 // serialized signature bytes per indexed domain
	Threshold      float64
	Precision      float64
	Recall         float64
	F1             float64
}

func (r FrontierRow) String() string {
	return fmt.Sprintf("%-10s bytes/domain=%7.1f t*=%.2f  P=%.3f R=%.3f F1=%.3f",
		r.System, r.BytesPerDomain, r.Threshold, r.Precision, r.Recall, r.F1)
}

// RunSketchFrontier runs the Fig. 4 accuracy workload under every sketch
// backend — the three minwise widths indexed by the same ensemble shape, plus
// the KMV comparator brute-force scoring with cardinality-aware containment
// — and reports accuracy next to per-domain signature bytes. Rows are
// ordered by descending footprint, so reading down the list walks the
// frontier from most-accurate-most-bytes toward cheapest.
func RunSketchFrontier(cfg SketchConfig) ([]FrontierRow, error) {
	cfg = cfg.withDefaults()
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: cfg.NumDomains, Seed: cfg.Seed})
	recs := datagen.Records(corpus, minhash.NewHasher(cfg.NumHash, cfg.Seed^0x5eed))
	queries := datagen.SampleQueries(corpus, cfg.NumQueries, cfg.Seed)

	var systems []system
	bytes := map[string]float64{}
	for _, sb := range []core.SketchBackend{core.Minwise64, core.Minwise32, core.Minwise16} {
		idx, err := buildEnsemble(recs, core.Options{
			NumHash: cfg.NumHash, RMax: cfg.RMax,
			NumPartitions: cfg.NumPartitions, Sketch: sb,
		})
		if err != nil {
			return nil, fmt.Errorf("ensemble(%s): %w", sb, err)
		}
		systems = append(systems, indexed(sb.String(), idx, recs))
		bytes[sb.String()] = float64(idx.Stats().SignatureBytes) / float64(len(recs))
	}

	// KMV is not indexable, so it enters the frontier the way the paper's
	// exact comparator does: a linear scan scoring every domain, here with
	// KMV's cardinality-aware containment estimate instead of exact sets.
	domainKMV := make([]*KMV, len(corpus.Domains))
	kmvBytes := 0
	for i, d := range corpus.Domains {
		s := NewKMV(cfg.KMVK)
		for _, v := range d.Values {
			s.PushUint64(v)
		}
		domainKMV[i] = s
		kmvBytes += s.SizeBytes()
	}
	systems = append(systems, system{"kmv", nil, func(qi int, tStar float64) []string {
		var out []string
		for i, x := range domainKMV {
			if domainKMV[qi].Containment(x) >= tStar {
				out = append(out, corpus.Domains[i].Key)
			}
		}
		return out
	}})
	bytes["kmv"] = float64(kmvBytes) / float64(len(corpus.Domains))

	var rows []FrontierRow
	for _, r := range runAccuracy(corpus, queries, systems, cfg.Thresholds) {
		rows = append(rows, FrontierRow{
			System:         r.System,
			BytesPerDomain: bytes[r.System],
			Threshold:      r.Threshold,
			Precision:      r.Precision,
			Recall:         r.Recall,
			F1:             r.F1,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Threshold != rows[j].Threshold {
			return rows[i].Threshold < rows[j].Threshold
		}
		return rows[i].BytesPerDomain > rows[j].BytesPerDomain
	})
	return rows, nil
}
