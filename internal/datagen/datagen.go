// Package datagen generates synthetic domain corpora that reproduce the
// two statistical properties the paper's evaluation depends on (DESIGN.md
// substitutions #1 and #2):
//
//  1. power-law distributed domain cardinalities (Fig. 1), and
//  2. a rich spectrum of true containment relationships between domains,
//     so that ground-truth result sets at every threshold are non-trivial.
//
// OpenData mimics the Canadian Open Data corpus used for the accuracy
// experiments: domains are grouped into "joinable clusters" that share a
// value pool (members take random contiguous runs of the pool, yielding
// containment scores across (0, 1]), plus Zipfian background values drawn
// from a global universe, plus domain-private noise. WebTable mimics the
// WDC Web Table corpus used for the performance experiments: same size
// distribution, all-private values (ground truth is not needed at that
// scale, exactly as in the paper).
package datagen

import (
	"fmt"
	"math"
	"sort"

	"lshensemble/internal/domain"
	"lshensemble/internal/exact"
	"lshensemble/internal/minhash"
	"lshensemble/internal/par"
	"lshensemble/internal/xrand"
)

// Domain is a named set of distinct 64-bit value identifiers.
type Domain struct {
	Key    string
	Values []uint64
}

// Corpus is a generated collection of domains.
type Corpus struct {
	Domains []Domain
}

// Sizes returns the cardinality of every domain.
func (c *Corpus) Sizes() []int {
	s := make([]int, len(c.Domains))
	for i, d := range c.Domains {
		s[i] = len(d.Values)
	}
	return s
}

// OpenDataConfig parameterizes OpenData. Zero values select defaults.
type OpenDataConfig struct {
	NumDomains      int     // default 8192
	Alpha           float64 // power-law exponent; default 2.0 (Fig. 1 left)
	MinSize         int     // default 10 (the paper discards smaller domains)
	MaxSize         int     // default 20000
	ClusterFraction float64 // fraction of domains inside joinable clusters; default 0.75
	MeanClusterSize int     // mean domains per cluster; default 16
	NoiseFraction   float64 // fraction of each member's values that are private; default 0.25
	ZipfFraction    float64 // fraction of private values drawn from the global Zipf universe; default 0.3
	ZipfUniverse    int     // global universe size; default 1 << 20
	Seed            uint64
}

func (c OpenDataConfig) withDefaults() OpenDataConfig {
	if c.NumDomains == 0 {
		c.NumDomains = 8192
	}
	if c.Alpha == 0 {
		c.Alpha = 2.0
	}
	if c.MinSize == 0 {
		c.MinSize = 10
	}
	if c.MaxSize == 0 {
		c.MaxSize = 20000
	}
	if c.ClusterFraction == 0 {
		c.ClusterFraction = 0.75
	}
	if c.MeanClusterSize == 0 {
		c.MeanClusterSize = 16
	}
	if c.NoiseFraction == 0 {
		c.NoiseFraction = 0.25
	}
	if c.ZipfFraction == 0 {
		c.ZipfFraction = 0.3
	}
	if c.ZipfUniverse == 0 {
		c.ZipfUniverse = 1 << 20
	}
	return c
}

// Value-space layout (disjoint by construction):
//
//	cluster values:  clusterID<<32 | offset       (top bit 0x4 set)
//	zipf universe:   0x2<<60 | rank
//	private values:  0x1<<60 | domainID<<24 | seq
const (
	clusterTag = uint64(0x4) << 60
	zipfTag    = uint64(0x2) << 60
	privateTag = uint64(0x1) << 60
)

// OpenData generates an accuracy-experiment corpus. Deterministic in cfg.
func OpenData(cfg OpenDataConfig) *Corpus {
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed ^ 0xa11ce)
	n := cfg.NumDomains

	// Sample sizes first so cluster pools can match their members.
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = rng.Pareto(cfg.Alpha, cfg.MinSize, cfg.MaxSize)
	}

	// Assign domains to clusters: consecutive runs of geometric length.
	clusterOf := make([]int, n)
	clusterMax := make(map[int]int) // cluster id → largest member size
	cid := 0
	for i := 0; i < n; {
		if rng.Float64() < cfg.ClusterFraction {
			run := 2 + rng.Intn(2*cfg.MeanClusterSize-2) // mean ≈ MeanClusterSize+1
			cid++
			for j := 0; j < run && i < n; j, i = j+1, i+1 {
				clusterOf[i] = cid
				if sizes[i] > clusterMax[cid] {
					clusterMax[cid] = sizes[i]
				}
			}
		} else {
			clusterOf[i] = 0 // unclustered
			i++
		}
	}

	corpus := &Corpus{Domains: make([]Domain, n)}
	for i := 0; i < n; i++ {
		size := sizes[i]
		values := make(map[uint64]struct{}, size)
		if c := clusterOf[i]; c != 0 {
			// Shared part: a contiguous run of the cluster pool. Pool size
			// is 1.5× the largest member so even the largest member is a
			// proper subset, and runs of different members overlap heavily.
			pool := clusterMax[c] + clusterMax[c]/2 + 1
			shared := size - int(cfg.NoiseFraction*float64(size))
			if shared > pool {
				shared = pool
			}
			start := rng.Intn(pool - shared + 1)
			for o := 0; o < shared; o++ {
				values[clusterTag|uint64(c)<<32|uint64(start+o)] = struct{}{}
			}
		}
		// Fill the remainder with Zipfian background and private noise.
		seq := 0
		for len(values) < size {
			if rng.Float64() < cfg.ZipfFraction {
				v := zipfTag | uint64(rng.Zipf(1.1, cfg.ZipfUniverse))
				if _, dup := values[v]; !dup {
					values[v] = struct{}{}
					continue
				}
			}
			values[privateTag|uint64(i)<<24|uint64(seq)] = struct{}{}
			seq++
		}
		vals := make([]uint64, 0, size)
		for v := range values {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		corpus.Domains[i] = Domain{Key: fmt.Sprintf("od-%06d", i), Values: vals}
	}
	return corpus
}

// WebTableConfig parameterizes WebTable. Zero values select defaults.
type WebTableConfig struct {
	NumDomains int     // default 65536
	Alpha      float64 // default 2.4 (Fig. 1 right is steeper)
	MinSize    int     // default 5
	MaxSize    int     // default 100000
	// ClusterFraction controls how many domains share value pools with
	// their neighbours (web tables are heavily templated, so columns
	// repeat across sites and the baseline's candidate sets are large —
	// the effect Table 4 measures). Default 0.8; set negative for fully
	// private values.
	ClusterFraction float64
	MeanClusterSize int // default 32
	// ZipfFraction is the fraction of each domain's values drawn from a
	// global Zipfian universe (ubiquitous web values: years, country
	// names, booleans). These shared values create the spurious LSH
	// collisions that make the Baseline's loosely-thresholded candidate
	// sets balloon at scale — the dominant query cost in the paper's
	// Table 4. Default 0.15; set negative to disable.
	ZipfFraction float64
	ZipfUniverse int // default 1 << 16
	Seed         uint64
}

func (c WebTableConfig) withDefaults() WebTableConfig {
	if c.NumDomains == 0 {
		c.NumDomains = 65536
	}
	if c.Alpha == 0 {
		c.Alpha = 2.4
	}
	if c.MinSize == 0 {
		c.MinSize = 5
	}
	if c.MaxSize == 0 {
		c.MaxSize = 100000
	}
	if c.ClusterFraction == 0 {
		c.ClusterFraction = 0.8
	}
	if c.ClusterFraction < 0 {
		c.ClusterFraction = 0
	}
	if c.MeanClusterSize == 0 {
		c.MeanClusterSize = 32
	}
	if c.ZipfFraction == 0 {
		c.ZipfFraction = 0.15
	}
	if c.ZipfFraction < 0 {
		c.ZipfFraction = 0
	}
	if c.ZipfUniverse == 0 {
		c.ZipfUniverse = 1 << 16
	}
	return c
}

// WebTable generates a performance-experiment corpus: power-law sizes and
// contiguous value runs. Clustered domains draw their run from a shared
// per-cluster pool (overlap without per-value bookkeeping — generation
// stays O(size) per domain); the rest are private. The overlap makes
// candidate-set sizes, and therefore the Baseline-vs-Ensemble query-cost
// gap of Table 4, realistic.
func WebTable(cfg WebTableConfig) *Corpus {
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed ^ 0x3eb7ab1e)
	corpus := &Corpus{Domains: make([]Domain, cfg.NumDomains)}
	i := 0
	cid := 0
	for i < cfg.NumDomains {
		run := 1
		clustered := rng.Float64() < cfg.ClusterFraction
		if clustered {
			run = 2 + rng.Intn(2*cfg.MeanClusterSize-2)
			cid++
		}
		// First pass of the run: sample sizes, find the largest member.
		end := i + run
		if end > cfg.NumDomains {
			end = cfg.NumDomains
		}
		maxSize := 0
		sizes := make([]int, end-i)
		for j := range sizes {
			sizes[j] = rng.Pareto(cfg.Alpha, cfg.MinSize, cfg.MaxSize)
			if sizes[j] > maxSize {
				maxSize = sizes[j]
			}
		}
		pool := maxSize + maxSize/2 + 1
		for j, size := range sizes {
			vals := make([]uint64, 0, size)
			nZipf := int(cfg.ZipfFraction * float64(size))
			run := size - nZipf
			var base uint64
			var start int
			if clustered {
				base = clusterTag | uint64(cid)<<32
				start = rng.Intn(pool - run + 1)
			} else {
				base = privateTag | uint64(i+j)<<24
			}
			for o := 0; o < run; o++ {
				vals = append(vals, base|uint64(start+o))
			}
			// Global Zipfian background; duplicates are replaced by private
			// values so the domain cardinality stays exact.
			if nZipf > 0 {
				seen := make(map[uint64]struct{}, nZipf)
				priv := privateTag | uint64(i+j)<<24 | uint64(1)<<23 // disjoint from run above
				seq := 0
				for len(seen) < nZipf {
					v := zipfTag | uint64(rng.Zipf(1.05, cfg.ZipfUniverse))
					if _, dup := seen[v]; dup {
						v = priv | uint64(seq)
						seq++
					}
					seen[v] = struct{}{}
					vals = append(vals, v)
				}
			}
			corpus.Domains[i+j] = Domain{Key: fmt.Sprintf("wt-%08d", i+j), Values: vals}
		}
		i = end
	}
	return corpus
}

// Records hashes and sketches every domain with the hasher, in parallel,
// returning index-ready records aligned with c.Domains. Jobs drain from a
// shared counter so a few huge power-law domains don't straggle one chunk.
func Records(c *Corpus, h *minhash.Hasher) []domain.Record {
	recs := make([]domain.Record, len(c.Domains))
	par.Drain(len(c.Domains), 0, func(_, i int) {
		d := c.Domains[i]
		recs[i] = domain.Record{Key: d.Key, Size: len(d.Values), Sig: h.SketchUint64s(d.Values)}
	})
	return recs
}

// ExactDomains adapts the corpus for the exact ground-truth engine.
func ExactDomains(c *Corpus) []exact.Domain {
	out := make([]exact.Domain, len(c.Domains))
	for i, d := range c.Domains {
		out[i] = exact.Domain{Key: d.Key, Values: d.Values}
	}
	return out
}

// SampleQueries returns k distinct domain indices drawn uniformly, to be
// used as query domains (the paper samples 3,000 indexed domains).
func SampleQueries(c *Corpus, k int, seed uint64) []int {
	n := len(c.Domains)
	if k > n {
		k = n
	}
	rng := xrand.New(seed ^ 0x9e3779b9)
	perm := rng.Perm(n)
	return perm[:k]
}

// QueriesBySizeDecile returns the indices of domains whose size falls in
// the smallest (decile = 0) or largest (decile = 9) tenth of the corpus —
// the workloads of Fig. 6 and Fig. 7. At most k indices are returned.
func QueriesBySizeDecile(c *Corpus, decile, k int, seed uint64) []int {
	n := len(c.Domains)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return len(c.Domains[order[a]].Values) < len(c.Domains[order[b]].Values)
	})
	lo := n * decile / 10
	hi := n * (decile + 1) / 10
	band := order[lo:hi]
	rng := xrand.New(seed ^ 0xdec11e)
	idx := rng.Perm(len(band))
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = band[idx[i]]
	}
	return out
}

// NestedSizeSubsets returns n nested index subsets with geometrically
// growing size intervals [minSize, minSize·g^i] — the skewness sweep of
// Fig. 5 (skewness grows with the interval because sizes are power-law).
func NestedSizeSubsets(c *Corpus, n int) [][]int {
	sizes := c.Sizes()
	minS, maxS := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	subsets := make([][]int, n)
	for i := 0; i < n; i++ {
		// threshold_i = minS * (maxS/minS)^((i+1)/n)
		frac := float64(i+1) / float64(n)
		thr := float64(minS) * math.Pow(float64(maxS)/float64(minS), frac)
		var idx []int
		for j, s := range sizes {
			if float64(s) <= thr+1e-9 {
				idx = append(idx, j)
			}
		}
		subsets[i] = idx
	}
	return subsets
}
