package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"lshensemble/internal/minhash"
)

// This file implements the high-throughput batch query engine. A batch of
// queries is dispatched over a bounded worker pool: each worker owns a
// pooled generation-stamped queryScratch (no cross-worker contention) and an
// append-only result arena, and the per-worker arenas are merged into the
// caller's BatchResults at the end. Steady-state batch serving through
// QueryBatchInto performs zero per-query allocations: worker state is
// recycled through a sync.Pool and the destination arena is reused.

// BatchQuery is one containment query of a batch: the query signature, the
// (exact or estimated) query cardinality |Q|, and the containment threshold
// t*.
type BatchQuery struct {
	Sig       minhash.Signature
	Size      int
	Threshold float64
}

// BatchResults receives the candidate ids of a query batch. Row i holds the
// ids matching queries[i], in the probe order of the worker that served it.
// All rows are views into one reusable arena: they remain valid until the
// BatchResults value is passed to QueryBatchInto again.
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

// reset prepares r for n queries, reusing its arena and offset table.
func (r *BatchResults) reset(n int) {
	if cap(r.offs) < n+1 {
		r.offs = make([]int, n+1)
	}
	r.offs = r.offs[:n+1]
	for i := range r.offs {
		r.offs[i] = 0
	}
	r.ids = r.ids[:0]
}

// batchRow records where one query's results landed in a worker's arena.
type batchRow struct {
	query      int
	start, end int
}

// batchWorker is the per-worker state of one batch dispatch: an append-only
// id arena and the row directory locating each served query inside it.
type batchWorker struct {
	ids  []uint32
	rows []batchRow
}

// batchState is the recycled coordination state of a batch dispatch. It is
// pooled on the Index so steady-state batches allocate nothing: the worker
// slice, worker arenas, and row directories all persist across calls.
//
// The dispatch deliberately does NOT go through par.Drain: Drain's closure
// capture and per-call WaitGroup would allocate on every dispatch, while
// spawning the pooled state's bound method (go st.run(w)) keeps the whole
// dispatch at a fixed few goroutine-spawn allocations regardless of batch
// size — the property BenchmarkQueryBatchThroughput and
// TestQueryBatchSteadyStateAllocs pin down.
type batchState struct {
	x       *Index
	ctx     context.Context
	queries []BatchQuery
	next    atomic.Int64
	wg      sync.WaitGroup
	workers []*batchWorker
}

// run serves queries from the shared counter until the batch is drained,
// writing results into this worker's private arena.
func (st *batchState) run(w int) {
	defer st.wg.Done()
	st.serve(w)
}

func (st *batchState) serve(w int) {
	x := st.x
	ctx := st.ctx
	bw := st.workers[w]
	bw.ids = bw.ids[:0]
	bw.rows = bw.rows[:0]
	s := x.acquireScratch()
	for {
		// One cancellation check per pulled query: a canceled batch stops
		// after at most one in-flight query per worker, without any
		// per-probe overhead on the uncanceled path.
		if ctx.Err() != nil {
			break
		}
		qi := int(st.next.Add(1)) - 1
		if qi >= len(st.queries) {
			break
		}
		q := &st.queries[qi]
		start := len(bw.ids)
		// A row no single query would serve (non-positive size, short
		// signature) stays empty.
		if q.Size > 0 && len(q.Sig) >= x.opts.NumHash {
			s.seen.Reset(len(x.keys)) // fresh dedup generation per query
			bw.ids = x.queryInto(bw.ids, s, q.Sig, q.Size, q.Threshold)
		}
		bw.rows = append(bw.rows, batchRow{query: qi, start: start, end: len(bw.ids)})
	}
	x.releaseScratch(s)
}

// QueryBatchInto answers every query of the batch, fanning queries across up
// to `workers` goroutines (0 means GOMAXPROCS), and stores all candidate ids
// into res — reusing its arena, so a serving loop that recycles one
// BatchResults performs zero steady-state allocations per query. Queries are
// pulled from a shared counter, so stragglers (queries with huge candidate
// sets) do not leave other workers idle.
func (x *Index) QueryBatchInto(res *BatchResults, queries []BatchQuery, workers int) error {
	return x.QueryBatchIntoContext(context.Background(), res, queries, workers)
}

// QueryBatchIntoContext is QueryBatchInto under a context: every worker
// checks ctx once per pulled query, so canceling the context (a disconnected
// client, an expired per-shard deadline) stops the remaining batch work
// after at most one in-flight query per worker instead of burning CPU to
// completion. When ctx is canceled it returns ctx.Err(); res then holds the
// rows completed before cancellation (unserved queries get empty rows) and
// must not be interpreted as a full answer. A query with a non-positive size
// or a signature shorter than NumHash gets an empty row.
func (x *Index) QueryBatchIntoContext(ctx context.Context, res *BatchResults, queries []BatchQuery, workers int) error {
	if err := ctx.Err(); err != nil {
		res.reset(len(queries))
		return err
	}
	res.reset(len(queries))
	if len(queries) == 0 || len(x.keys) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	st, _ := x.batch.Get().(*batchState)
	if st == nil {
		st = &batchState{}
	}
	st.x = x
	st.ctx = ctx
	st.queries = queries
	st.next.Store(0)
	for len(st.workers) < workers {
		st.workers = append(st.workers, &batchWorker{})
	}
	if workers == 1 {
		// Degenerate pool: serve inline, no goroutine round-trip.
		st.wg.Add(1)
		st.run(0)
	} else {
		st.wg.Add(workers)
		for w := 1; w < workers; w++ {
			go st.run(w)
		}
		st.serve(0) // the caller's goroutine is worker 0
		st.wg.Done()
		st.wg.Wait()
	}
	// Merge: size each row from the workers' directories, prefix-sum into
	// offsets, then copy every worker row into its final, query-ordered slot.
	offs := res.offs
	total := 0
	for w := 0; w < workers; w++ {
		for _, row := range st.workers[w].rows {
			offs[row.query+1] = row.end - row.start
			total += row.end - row.start
		}
	}
	for i := 1; i < len(offs); i++ {
		offs[i] += offs[i-1]
	}
	if cap(res.ids) < total {
		res.ids = make([]uint32, total)
	}
	res.ids = res.ids[:total]
	for w := 0; w < workers; w++ {
		bw := st.workers[w]
		for _, row := range bw.rows {
			copy(res.ids[offs[row.query]:offs[row.query+1]], bw.ids[row.start:row.end])
		}
	}
	st.x = nil
	st.ctx = nil
	st.queries = nil
	x.batch.Put(st)
	return ctx.Err()
}

// QueryBatch answers every query of the batch with up to `workers`
// goroutines (0 means GOMAXPROCS) and returns one id slice per query, in
// query order. The rows share one freshly allocated arena. Serving loops
// that care about allocation should use QueryBatchInto with a reused
// BatchResults instead.
func (x *Index) QueryBatch(queries []BatchQuery, workers int) ([][]uint32, error) {
	return x.QueryBatchContext(context.Background(), queries, workers)
}

// QueryBatchContext is QueryBatch under a context — see
// QueryBatchIntoContext for the cancellation semantics. On cancellation it
// returns (nil, ctx.Err()).
func (x *Index) QueryBatchContext(ctx context.Context, queries []BatchQuery, workers int) ([][]uint32, error) {
	var res BatchResults
	if err := x.QueryBatchIntoContext(ctx, &res, queries, workers); err != nil {
		return nil, err
	}
	out := make([][]uint32, len(queries))
	for i := range out {
		out[i] = res.Row(i)
	}
	return out, nil
}
