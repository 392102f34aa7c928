package core

import (
	"fmt"

	"lshensemble/internal/lshforest"
	"lshensemble/internal/minhash"
	"lshensemble/internal/tune"
)

// topKThresholds is the descending threshold ladder a top-k query walks —
// the top-k formulation the paper's Section 2 describes as complementary to
// threshold search: collect candidates until at least k are found (or the
// ladder is exhausted), then rank them by signature-estimated containment.
// The ladder trades probe count against over-retrieval; 0.05 matches the
// paper's experimental threshold granularity.
var topKThresholds = func() []float64 {
	var ts []float64
	for t := 1.0; t > 0.04; t -= 0.05 {
		ts = append(ts, t)
	}
	return ts
}()

// topKIDs walks the threshold ladder, appending candidate ids to dst until
// at least k are collected or the ladder is exhausted. One scratch
// generation spans the whole walk: the visited stamps persist across rungs,
// so each lower threshold appends only ids not already collected by a higher
// one. That also makes a rung's probe of a partition whose (b, r) is what the
// walk last probed it with pure waste — same signature, same trees, same
// depth: every id it reports is already stamped — so such probes are dropped
// from the rung's plan (about half of all ladder probes on power-law data:
// the large partitions sit at (bMax, 1) from t* = 1.0 down). Each partition
// probes only the trees in its set (nil = all), as in QueryIDsMaskedAppend.
func (x *Index) topKIDs(dst []uint32, s *queryScratch, sig minhash.Signature, querySize, k int, trees []lshforest.TreeSet) []uint32 {
	if cap(s.last) < len(x.parts) {
		s.last = make([]tune.Params, len(x.parts))
	}
	s.last = s.last[:len(x.parts)]
	clear(s.last)
	for _, tStar := range topKThresholds {
		s.plan = x.PlanPartitions(s.plan[:0], querySize, tStar)
		for pi, p := range s.plan {
			if p.B == 0 {
				continue
			}
			if p == s.last[pi] {
				s.plan[pi] = tune.Params{}
			} else {
				s.last[pi] = p
			}
		}
		dst = x.probe(dst, s, sig, s.plan, trees)
		if len(dst) >= k {
			break
		}
	}
	return dst
}

// QueryTopKIDs appends the candidate ids a top-k query ranks — the
// ladder-walk collection, unscored and unsorted — to dst. Layered callers
// (internal/live) use it to gather at least k candidates per segment, then
// score them with EstContainment and merge across segments with domain.CompareTopK.
// It returns ErrSignatureLength if sig is shorter than NumHash.
func (x *Index) QueryTopKIDs(dst []uint32, sig minhash.Signature, querySize, k int) ([]uint32, error) {
	return x.QueryTopKIDsMasked(dst, sig, querySize, k, nil)
}

// QueryTopKIDsMasked is QueryTopKIDs with every rung of the ladder probing, in
// partition pi, only the trees in trees[pi] (nil = all) — see
// QueryIDsMaskedAppend for what the sets must hold, for every b a rung may
// plan, for the id sequence to stay identical.
func (x *Index) QueryTopKIDsMasked(dst []uint32, sig minhash.Signature, querySize, k int, trees []lshforest.TreeSet) ([]uint32, error) {
	if err := x.opts.CheckQuerySig(sig); err != nil {
		return dst, err
	}
	if trees != nil && len(trees) != len(x.parts) {
		return dst, fmt.Errorf("core: %d tree sets, index has %d partitions", len(trees), len(x.parts))
	}
	if k <= 0 || querySize <= 0 || len(x.keys) == 0 {
		return dst, nil
	}
	sig = sig[:x.opts.NumHash]
	s := x.acquireScratch()
	dst = x.topKIDs(dst, s, sig, querySize, k, trees)
	x.releaseScratch(s)
	return dst, nil
}
