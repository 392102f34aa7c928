package core

import "lshensemble/internal/domain"

// BatchResults receives the candidate ids of a query batch. Row i holds the
// ids matching queries[i]. All rows are views into one reusable arena: they
// remain valid until the BatchResults value is passed to QueryBatchInto again.
type BatchResults struct {
	ids  []uint32
	offs []int // row i spans ids[offs[i]:offs[i+1]]; len(offs) = numQueries+1
}

// NumRows returns the number of queries answered into r.
func (r *BatchResults) NumRows() int {
	if len(r.offs) == 0 {
		return 0
	}
	return len(r.offs) - 1
}

// Row returns the candidate ids of query i. The slice is a view into the
// results arena; it must not be appended to and is invalidated by the next
// QueryBatchInto reusing r.
func (r *BatchResults) Row(i int) []uint32 {
	return r.ids[r.offs[i]:r.offs[i+1]:r.offs[i+1]]
}

// QueryBatchInto answers the queries in order on the caller's goroutine and
// stores their candidate ids into res, reusing its arena, so a loop that
// recycles one BatchResults allocates nothing per query. Row i is
// QueryIDsAppend's answer to queries[i]; a query with a non-positive size or a
// signature shorter than NumHash gets an empty row. workers is ignored: the
// batch engine that serves is the live index's, and this one remains only for
// the benchmark ladder's static-index rung.
func (x *Index) QueryBatchInto(res *BatchResults, queries []domain.BatchQuery, workers int) error {
	res.ids = res.ids[:0]
	res.offs = append(res.offs[:0], 0)
	s := x.acquireScratch()
	for _, q := range queries {
		if q.Size > 0 && len(q.Sig) >= x.opts.NumHash && len(x.keys) > 0 {
			s.seen.Reset(len(x.keys)) // a fresh dedup generation per query
			res.ids = x.queryInto(res.ids, s, q.Sig, q.Size, q.Threshold)
		}
		res.offs = append(res.offs, len(res.ids))
	}
	x.releaseScratch(s)
	return nil
}
