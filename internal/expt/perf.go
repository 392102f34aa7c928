package expt

import (
	"fmt"
	"sync"
	"time"

	"lshensemble/internal/core"
	"lshensemble/internal/datagen"
	"lshensemble/internal/live"
	"lshensemble/internal/minhash"
)

// PerfConfig parameterizes the performance experiments (Fig. 9 and
// Table 4). Defaults are scaled for a laptop; raise NumDomains toward the
// paper's 262,893,406 on bigger hardware — the code paths are identical.
type PerfConfig struct {
	NumDomains int   // largest corpus size; default 100_000 (paper: 262.9M)
	Steps      int   // number of corpus sizes for Fig. 9; default 5
	NumQueries int   // default 50 (paper: 3,000)
	NumHash    int   // default 256
	RMax       int   // default 8
	Partitions []int // default {8, 16, 32}
	Shards     int   // Table 4 cluster width; default 5 (paper: 5 nodes)
	Seed       uint64
	// Sketch selects the signature store backend (zero = the library's
	// default, minwise32); b-bit backends shrink the store and its scans.
	Sketch core.SketchBackend
}

func (c PerfConfig) withDefaults() PerfConfig {
	if c.NumDomains == 0 {
		c.NumDomains = 100_000
	}
	if c.Steps == 0 {
		c.Steps = 5
	}
	if c.NumQueries == 0 {
		c.NumQueries = 50
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
	if c.Shards == 0 {
		c.Shards = 5
	}
	return c
}

// PerfRow is one (corpus size, partition count) point of Fig. 9.
type PerfRow struct {
	NumDomains    int
	Partitions    int
	IndexingTime  time.Duration // sketching + partitioning + forest build
	MeanQueryTime time.Duration
	MeanResults   float64 // mean candidates returned (selectivity proxy)
}

func (r PerfRow) String() string {
	return fmt.Sprintf("n=%-9d parts=%-3d index=%-12s query=%-12s results=%.1f",
		r.NumDomains, r.Partitions, r.IndexingTime.Round(time.Millisecond),
		r.MeanQueryTime.Round(time.Microsecond), r.MeanResults)
}

// RunFig9 reproduces Fig. 9: indexing time and mean query time as the
// number of domains grows, for each partition count. Indexing time includes
// MinHash sketching (as in the paper, which measures end-to-end index
// construction over raw domains).
func RunFig9(cfg PerfConfig) ([]PerfRow, error) {
	cfg = cfg.withDefaults()
	var rows []PerfRow
	for step := 1; step <= cfg.Steps; step++ {
		n := cfg.NumDomains * step / cfg.Steps
		corpus := datagen.WebTable(datagen.WebTableConfig{NumDomains: n, Seed: cfg.Seed})
		queries := datagen.SampleQueries(corpus, cfg.NumQueries, cfg.Seed)
		for _, parts := range cfg.Partitions {
			start := time.Now()
			recs := datagen.Records(corpus, minhash.NewHasher(cfg.NumHash, cfg.Seed^0x5eed))
			idx, err := buildEnsemble(recs, core.Options{
				NumHash: cfg.NumHash, RMax: cfg.RMax, NumPartitions: parts, Sketch: cfg.Sketch,
			})
			if err != nil {
				return nil, err
			}
			indexing := time.Since(start)

			const tStar = 0.5
			totalResults := 0
			qStart := time.Now()
			for _, qi := range queries {
				totalResults += len(idx.Query(recs[qi].Sig, recs[qi].Size, tStar))
			}
			queryTime := time.Since(qStart)
			rows = append(rows, PerfRow{
				NumDomains:    n,
				Partitions:    parts,
				IndexingTime:  indexing,
				MeanQueryTime: queryTime / time.Duration(len(queries)),
				MeanResults:   float64(totalResults) / float64(len(queries)),
			})
		}
	}
	return rows, nil
}

// Tab4Row is one system row of Table 4.
type Tab4Row struct {
	System        string
	IndexingTime  time.Duration
	MeanQueryTime time.Duration
	MeanResults   float64
}

func (r Tab4Row) String() string {
	return fmt.Sprintf("%-18s indexing=%-12s mean query=%-12s results=%.1f",
		r.System, r.IndexingTime.Round(time.Millisecond),
		r.MeanQueryTime.Round(time.Microsecond), r.MeanResults)
}

// shardedIndex mirrors the paper's 5-node deployment: the corpus is split
// into equal chunks, one ensemble per chunk, queries fan out to all shards
// concurrently and results are unioned.
type shardedIndex struct {
	shards []*live.Index
}

func (s *shardedIndex) query(sig minhash.Signature, querySize int, tStar float64) []string {
	results := make([][]string, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *live.Index) {
			defer wg.Done()
			results[i] = sh.Query(sig, querySize, tStar)
		}(i, sh)
	}
	wg.Wait()
	var out []string
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// RunTab4 reproduces Table 4: indexing and query cost of the Baseline
// (single-partition MinHash LSH) versus LSH Ensemble with 8/16/32
// partitions, on a sharded deployment. Shards are built sequentially but
// the build is already internally parallel; queries probe shards
// concurrently as in the paper's cluster.
func RunTab4(cfg PerfConfig) ([]Tab4Row, error) {
	cfg = cfg.withDefaults()
	corpus := datagen.WebTable(datagen.WebTableConfig{NumDomains: cfg.NumDomains, Seed: cfg.Seed})
	recs := datagen.Records(corpus, minhash.NewHasher(cfg.NumHash, cfg.Seed^0x5eed))
	queries := datagen.SampleQueries(corpus, cfg.NumQueries, cfg.Seed)

	variants := append([]int{1}, cfg.Partitions...)
	var rows []Tab4Row
	for _, parts := range variants {
		name := fmt.Sprintf("LSH Ensemble (%d)", parts)
		if parts == 1 {
			name = "Baseline"
		}
		start := time.Now()
		sharded := &shardedIndex{}
		chunk := (len(recs) + cfg.Shards - 1) / cfg.Shards
		for lo := 0; lo < len(recs); lo += chunk {
			hi := lo + chunk
			if hi > len(recs) {
				hi = len(recs)
			}
			idx, err := buildEnsemble(recs[lo:hi], core.Options{
				NumHash: cfg.NumHash, RMax: cfg.RMax, NumPartitions: parts, Sketch: cfg.Sketch,
			})
			if err != nil {
				return nil, err
			}
			sharded.shards = append(sharded.shards, idx)
		}
		indexing := time.Since(start)

		const tStar = 0.5
		total := 0
		qStart := time.Now()
		for _, qi := range queries {
			total += len(sharded.query(recs[qi].Sig, recs[qi].Size, tStar))
		}
		queryTime := time.Since(qStart)
		rows = append(rows, Tab4Row{
			System:        name,
			IndexingTime:  indexing,
			MeanQueryTime: queryTime / time.Duration(len(queries)),
			MeanResults:   float64(total) / float64(len(queries)),
		})
	}
	return rows, nil
}
