// Package asym implements Asymmetric Minwise Hashing (Shrivastava & Li,
// WWW 2015), the state-of-the-art containment-search comparator evaluated
// by the paper (Section 4, Section 6, and the appendix).
//
// The asymmetric transformation pads every indexed domain with fresh,
// never-colliding values until it reaches the global maximum domain size M.
// After padding, the Jaccard similarity between a query and a padded domain
// is monotone in their containment (paper Eq. 31), so a single MinHash LSH
// can answer containment queries. The paper's appendix shows why this
// collapses under skew: the candidate probability of a fully contained
// domain decays like 1 − (1 − (q/M)^r)^b, which is near zero once M ≫ q
// (Fig. 10) — our implementation reproduces exactly that recall collapse.
//
// Padding simulation: padding a signature with k fresh values replaces each
// slot v with min(v, min of k iid uniform hashes). We sample that minimum
// directly from its exact distribution (inverse CDF, see
// xrand.MinOfUniforms) with a deterministic per-domain stream instead of
// hashing k literal values, which would cost O(k·m) per domain with k up to
// millions. PadExact provides the literal construction for cross-validation
// in tests.
package asym

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"lshensemble/internal/core"
	"lshensemble/internal/dedup"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/minhash"
	"lshensemble/internal/par"
	"lshensemble/internal/tune"
	"lshensemble/internal/xrand"
)

// Index is an Asymmetric Minwise Hashing containment index. It is safe for
// concurrent queries.
type Index struct {
	forest  *lshforest.Forest
	keys    []string
	maxSize int // M: the padded size of every indexed domain
	numHash int
	opt     *tune.Table

	// scratch pools *dedup.Set values so steady-state queries allocate only
	// their result: dedup across the forest's trees uses a
	// generation-stamped visited set instead of a per-query map (the same
	// pattern as internal/core).
	scratch sync.Pool
}

func (x *Index) acquireScratch() *dedup.Set {
	s, _ := x.scratch.Get().(*dedup.Set)
	if s == nil {
		s = &dedup.Set{}
	}
	s.Reset(len(x.keys))
	return s
}

// ErrEmpty is returned by Build when no records are given.
var ErrEmpty = errors.New("asym: no records to index")

// Build constructs the index, padding every record's signature to the
// maximum record size. numHash and rMax default to 256 and 8 when zero.
func Build(records []core.Record, numHash, rMax int) (*Index, error) {
	if numHash == 0 {
		numHash = 256
	}
	if rMax == 0 {
		rMax = 8
	}
	if len(records) == 0 {
		return nil, ErrEmpty
	}
	maxSize := 0
	for _, r := range records {
		if r.Size <= 0 {
			return nil, fmt.Errorf("asym: record %q has non-positive size %d", r.Key, r.Size)
		}
		if len(r.Sig) < numHash {
			return nil, fmt.Errorf("asym: record %q signature length %d < numHash %d",
				r.Key, len(r.Sig), numHash)
		}
		if r.Size > maxSize {
			maxSize = r.Size
		}
	}
	x := &Index{
		forest:  lshforest.New(numHash, rMax),
		maxSize: maxSize,
		numHash: numHash,
		opt:     tune.ForGrid(numHash/rMax, rMax),
	}
	// Padding simulation is the expensive phase (one inverse-CDF sample per
	// slot per record), and every record pads independently — fan it out.
	// The forest fill stays serial (appends to one contiguous store) but is
	// pre-sized, and the tree sorts fan out again per tree.
	padded := make([]minhash.Signature, len(records))
	par.Chunked(len(records), 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := records[i]
			padded[i] = Pad(r.Sig[:numHash], r.Key, maxSize-r.Size)
		}
	})
	x.forest.Reserve(len(records))
	for i, r := range records {
		x.forest.Add(uint32(i), padded[i])
		x.keys = append(x.keys, r.Key)
	}
	x.forest.IndexParallel(runtime.GOMAXPROCS(0))
	return x, nil
}

// Pad returns a copy of sig transformed as if k fresh values (unique to
// this domain, never colliding with anything else) had been added to the
// underlying domain. The padding stream is derived deterministically from
// the domain key so rebuilding an index is reproducible.
func Pad(sig minhash.Signature, key string, k int) minhash.Signature {
	out := sig.Clone()
	if k <= 0 {
		return out
	}
	rng := xrand.New(minhash.HashString(key) ^ 0x9e3779b97f4a7c15)
	for i := range out {
		pv := rng.MinOfUniforms(k, minhash.MersennePrime)
		if pv < out[i] {
			out[i] = pv
		}
	}
	return out
}

// PadExact performs the padding by literally hashing k fresh values with
// the hasher — O(k·m). Only feasible for small k; used to validate Pad.
func PadExact(h *minhash.Hasher, sig minhash.Signature, key string, k int) minhash.Signature {
	out := sig.Clone()
	for i := 0; i < k; i++ {
		h.PushString(out, fmt.Sprintf("\x00pad|%s|%d", key, i))
	}
	return out
}

// Query returns the keys of candidate domains at containment threshold
// tStar. The tuner is invoked with x = M because every indexed signature
// represents a padded domain of size M. Dedup across the forest's trees
// uses a pooled generation-stamped visited array, so the only allocation is
// the result itself.
func (x *Index) Query(sig minhash.Signature, querySize int, tStar float64) []string {
	if querySize <= 0 || len(x.keys) == 0 {
		return nil
	}
	params := x.opt.Optimize(float64(x.maxSize), float64(querySize), tStar)
	s := x.acquireScratch()
	var out []string
	x.forest.Query(sig, params.B, params.R, nil, func(id uint32) bool {
		if s.TryMark(id) {
			out = append(out, x.keys[id])
		}
		return true
	})
	x.scratch.Put(s)
	return out
}

// Len returns the number of indexed domains.
func (x *Index) Len() int { return len(x.keys) }

// MaxSize returns M, the padded size of every indexed domain.
func (x *Index) MaxSize() int { return x.maxSize }

// ProbFullContainment is P(t=1 | M, q, b, r) (paper Eq. 32): the
// probability that a domain fully containing the query survives the LSH
// filter after padding to size M. The paper's Fig. 10 (left) plots this
// decay as M grows.
func ProbFullContainment(M, q float64, b, r int) float64 {
	if M <= 0 || q <= 0 {
		return 0
	}
	s := q / M
	if s > 1 {
		s = 1
	}
	return 1 - math.Pow(1-math.Pow(s, float64(r)), float64(b))
}

// MinHashesForRecall is m*: the minimum number of hash functions needed to
// keep ProbFullContainment at least target with the most permissive tuning
// (r = 1, b = m). Fig. 10 (right) shows m* growing linearly with M.
func MinHashesForRecall(M, q, target float64) int {
	if target <= 0 {
		return 1
	}
	if target >= 1 || q >= M {
		return 1
	}
	// 1 - (1 - q/M)^m >= target  ⇒  m >= log(1-target)/log(1-q/M)
	m := math.Log(1-target) / math.Log(1-q/M)
	return int(math.Ceil(m))
}
