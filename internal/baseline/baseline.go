// Package baseline implements the paper's "Baseline" comparator: a single
// dynamically tuned MinHash LSH over the whole corpus. It is exactly an LSH
// Ensemble with one partition — the containment threshold is converted to a
// Jaccard threshold with the *global* upper size bound, which is why its
// precision collapses as the size skew grows (Section 6.1).
package baseline

import (
	"lshensemble/internal/core"
	"lshensemble/internal/live"
	"lshensemble/internal/minhash"
)

// Index is a single-partition MinHash LSH containment index: a live index
// sealed into one segment of one partition.
type Index struct {
	inner *live.Index
}

// Build constructs the baseline over the records with m = numHash hash
// functions and forest depth rMax (defaults 256 and 8 when zero).
func Build(records []core.Record, numHash, rMax int) (*Index, error) {
	if len(records) == 0 {
		return nil, core.ErrEmpty
	}
	inner, err := live.Build(records, live.Options{
		Options: core.Options{
			NumHash:       numHash,
			RMax:          rMax,
			NumPartitions: 1,
			Sketch:        core.Minwise64, // the paper's full-width minima
		},
		ManualCompaction: true,
	})
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// Query returns the keys of candidate domains for the query signature at
// containment threshold tStar (none for a signature shorter than numHash).
func (x *Index) Query(sig minhash.Signature, querySize int, tStar float64) []string {
	return x.inner.Query(sig, querySize, tStar)
}

// Len returns the number of indexed domains.
func (x *Index) Len() int { return x.inner.Len() }

// UpperBound returns the global size upper bound used for threshold
// conversion: the bound of the one segment's one partition.
func (x *Index) UpperBound() int { return x.inner.Stats().SegmentDetail[0].MaxBound }
