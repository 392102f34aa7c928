// Package baseline implements the paper's "Baseline" comparator: a single
// dynamically tuned MinHash LSH over the whole corpus. It is exactly an LSH
// Ensemble with one partition — the containment threshold is converted to a
// Jaccard threshold with the *global* upper size bound, which is why its
// precision collapses as the size skew grows (Section 6.1).
package baseline

import (
	"lshensemble/internal/core"
	"lshensemble/internal/minhash"
)

// Index is a single-partition MinHash LSH containment index.
type Index struct {
	inner *core.Index
}

// Build constructs the baseline over the records with m = numHash hash
// functions and forest depth rMax (defaults 256 and 8 when zero).
func Build(records []core.Record, numHash, rMax int) (*Index, error) {
	inner, err := core.Build(records, core.Options{
		NumHash:       numHash,
		RMax:          rMax,
		NumPartitions: 1,
		Sketch:        core.Minwise64, // the paper's full-width minima
	})
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// Query returns the keys of candidate domains for the query signature at
// containment threshold tStar (none for a signature shorter than numHash).
func (x *Index) Query(sig minhash.Signature, querySize int, tStar float64) []string {
	ids, _ := x.inner.QueryIDsAppend(nil, sig, querySize, tStar)
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = x.inner.Key(id)
	}
	return keys
}

// Len returns the number of indexed domains.
func (x *Index) Len() int { return x.inner.Len() }

// UpperBound returns the global size upper bound used for threshold
// conversion.
func (x *Index) UpperBound() int {
	b := x.inner.PartitionBounds()
	return b[len(b)-1].Upper
}
