// Package baseline implements the paper's "Baseline" comparator: a single
// dynamically tuned MinHash LSH over the whole corpus. It is exactly an LSH
// Ensemble with one partition — the containment threshold is converted to a
// Jaccard threshold with the *global* upper size bound, which is why its
// precision collapses as the size skew grows (Section 6.1). The index is a
// configuration of the live index (internal/live): one partition at full
// width, sealed into one segment.
package baseline

import (
	"lshensemble/internal/core"
	"lshensemble/internal/domain"
	"lshensemble/internal/live"
)

// Build constructs the baseline over the records with m = numHash hash
// functions and forest depth rMax (defaults 256 and 8 when zero): a live
// index whose one segment's one partition has the largest record size as
// its upper bound. It returns core.ErrEmpty when no records are given.
func Build(records []domain.Record, numHash, rMax int) (*live.Index, error) {
	if len(records) == 0 {
		return nil, core.ErrEmpty
	}
	return live.Build(records, live.Options{
		Options: core.Options{
			NumHash:       numHash,
			RMax:          rMax,
			NumPartitions: 1,
			Sketch:        core.Minwise64, // the paper's full-width minima
		},
		ManualCompaction: true,
	})
}
