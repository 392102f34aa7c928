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
// The index is a configuration of the live index (internal/live), not an
// LSH index of its own: it is the Baseline over the padded records, one
// partition at full width whose upper bound M is the size at which every
// query is tuned.
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
	"fmt"
	"math"

	"lshensemble/internal/core"
	"lshensemble/internal/domain"
	"lshensemble/internal/expt/baseline"
	"lshensemble/internal/live"
	"lshensemble/internal/minhash"
	"lshensemble/internal/par"
	"lshensemble/internal/xrand"
)

// Build constructs the index: the Baseline (baseline.Build) over the
// records, each padded to the maximum record size M. Its one partition's
// upper bound is M, so every query is tuned at x = M, the size every padded
// domain represents. numHash and rMax default to 256 and 8 when zero. It
// returns core.ErrEmpty when no records are given.
func Build(records []domain.Record, numHash, rMax int) (*live.Index, error) {
	if len(records) == 0 {
		return nil, core.ErrEmpty
	}
	opts := core.Options{NumHash: numHash, RMax: rMax}.WithDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// Each record is checked at its own size: after padding every size is M.
	maxSize := 0
	for _, r := range records {
		if r.Size <= 0 {
			return nil, fmt.Errorf("asym: record %q has non-positive size %d", r.Key, r.Size)
		}
		if len(r.Sig) < opts.NumHash {
			return nil, fmt.Errorf("asym: record %q signature length %d < numHash %d",
				r.Key, len(r.Sig), opts.NumHash)
		}
		maxSize = max(maxSize, r.Size)
	}
	// Padding simulation is the expensive phase (one inverse-CDF sample per
	// slot per record), and every record pads independently — fan it out.
	padded := make([]domain.Record, len(records))
	par.Chunked(len(records), 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := records[i]
			sig := Pad(r.Sig[:opts.NumHash], r.Key, maxSize-r.Size)
			padded[i] = domain.Record{Key: r.Key, Size: maxSize, Sig: sig}
		}
	})
	return baseline.Build(padded, opts.NumHash, opts.RMax)
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

// MinHashesForRecall is m*: the minimum number of hash functions needed to
// keep the candidate probability of a domain fully containing the query,
// padded to size M (tune.CandidateProbability(1, M, q, b, r), paper Eq. 32),
// at least target with the most permissive tuning (r = 1, b = m). Fig. 10
// (right) shows m* growing linearly with M.
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
