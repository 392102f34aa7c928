package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"lshensemble"
	"lshensemble/internal/cluster"
	"lshensemble/internal/core"
	"lshensemble/internal/serve"
	"lshensemble/internal/tune"
)

// The traced run replays fixed queries one at a time up a ladder of rungs
// over the same fixtures the end-to-end run loads:
//
//	R0 minhash   lshensemble.SketchStrings on the query's raw strings
//	R1 core      plan + probe on a one-segment core.Build of the indexed corpus
//	R2 live      live.Index.QueryAppendContext with a QueryTrace, per shard
//	R3 serve     the /query handler called in-process, per shard
//	R4 http      the same request over loopback to each shard (cluster.Client)
//	R5 cluster   the same request through the router
//
// Every call is a span recorded from outside the program, around a public
// call. The rungs are separate replays, not nested calls, so a layer's self
// time is its rung minus the rungs below it: serve's codec = R3 − R0 − R2,
// transport = R4 − R3, the router = R5 − the slowest shard's R4.

// span is one timed call. Parent is the span of the next rung up for the
// same query (0 for the top rung), so a query's spans read as the call tree
// a request would make, although they ran one after another.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	QueryID int    `json:"query_id"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	on    bool
}

// timed runs f and returns its duration; with the tracer on it also records
// the span and returns its id for children to name as parent.
func (t *tracer) timed(name string, parent, query int, f func()) (int, time.Duration) {
	start := time.Now()
	f()
	end := time.Now()
	if !t.on {
		return 0, end.Sub(start)
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, StartNs: start.Sub(t.t0).Nanoseconds(),
		EndNs: end.Sub(t.t0).Nanoseconds(), Parent: parent, QueryID: query})
	return id, end.Sub(start)
}

// traceFile is bench/out/trace.json: one entry per traced workload of this
// process.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

var traceRuns []traceFile

func writeTraceFile() error {
	if len(traceRuns) == 0 {
		return nil
	}
	raw, err := json.Marshal(traceRuns)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace.json"), raw, 0o644)
}

// samples collects one duration per query and reads percentiles off the raw
// values.
type samples []time.Duration

func (s samples) p50() time.Duration {
	c := append(samples(nil), s...)
	slices.Sort(c)
	return quantile(c, 0.50)
}

// medianBand marks the queries whose rungs, added up, lie between the 40th
// and the 60th percentile of that total: the requests around the median, whose
// breakdown the ledger reports. Ranking by the total of all rungs, not by the
// top one, keeps out of the band a query one of whose lower rungs met a
// hiccup: two such among forty once made the router's mean self time −306 µs.
func medianBand(total samples) []bool {
	c := append(samples(nil), total...)
	slices.Sort(c)
	lo, hi := quantile(c, 0.40), quantile(c, 0.60)
	in := make([]bool, len(total))
	for i, d := range total {
		in[i] = d >= lo && d <= hi
	}
	return in
}

// bandMean averages s over the marked queries. Unlike per-layer medians,
// band means of self times add up to the band mean of the top rung, because
// each query's self times add up to its own top rung exactly.
func (s samples) bandMean(in []bool) time.Duration {
	var sum time.Duration
	n := 0
	for i, d := range s {
		if in[i] {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// ladderRun is the result of replaying the query ladder once.
type ladderRun struct {
	top                                    samples // the workload's highest rung
	total                                  samples // every rung of the query, added up
	minhash, live, codec, transport, route samples // self times, per query
	handler, http                          samples // R3, R4 of the slowest shard
	skew                                   []float64
	values                                 int // raw values sketched, summed
	reqBytes, respBytes                    int
	qt                                     struct{ queries, segments, buffered, probed, pruned, scanned int }
}

// traceEnv is what the ladder needs beside the fixture.
type traceEnv struct {
	fx       *fixture
	queries  []int // pool indices, in replay order
	strs     map[int][]string
	bodies   map[int][]byte
	shardCli []*cluster.Client
	scratch  []string
	// Ahead of a timed call the caches are put where the workload's own
	// traffic leaves them. fresh runs before every pass over the queries,
	// which are distinct then (lib_query: a new generation, as ahead of its
	// laps; once a pass and not once a call, because each leaves a dead entry
	// in the buffer the queries scan). fleet_query's answers stay cached, as
	// set-up left them.
	fresh func()
}

func (e *traceEnv) valuesOf(q int) []string {
	if s, ok := e.strs[q]; ok {
		return s
	}
	s := e.fx.strs(e.fx.in.domain[q])
	e.strs[q] = s
	return s
}

func (e *traceEnv) bodyOf(q int) []byte {
	if b, ok := e.bodies[q]; ok {
		return b
	}
	b := mustJSON(&serve.QueryRequest{Values: e.valuesOf(q), Threshold: threshold})
	e.bodies[q] = b
	return b
}

func (e *traceEnv) newPass() {
	if e.fresh != nil {
		e.fresh()
	}
}

// The four calls of the ladder. Each performs one timed call for pool query
// q and reports whether the answer held the query's own key.

func (e *traceEnv) callRouter(tr *tracer, qi, q int) (id int, d time.Duration, found bool) {
	body := e.bodyOf(q)
	c := e.fx.target.(*httpTarget).c
	id, d = tr.timed("cluster.query", 0, qi, func() {
		var a answerBody
		var got []string
		if _, err := c.post("/query", body, &a); err == nil && json.Unmarshal(a.Matches, &got) == nil {
			found = slices.Contains(got, e.fx.in.keys[q])
		}
	})
	return id, d, found
}

func (e *traceEnv) callShard(tr *tracer, parent, qi, q, s int) (id int, d time.Duration, found bool, err error) {
	req := &serve.QueryRequest{Values: e.valuesOf(q), Threshold: threshold}
	var resp serve.QueryResponse
	id, d = tr.timed("serve.http", parent, qi, func() { resp, err = e.shardCli[s].Query(context.Background(), req) })
	return id, d, slices.Contains(resp.Matches, e.fx.in.keys[q]), err
}

func (e *traceEnv) callHandler(tr *tracer, parent, qi, q, s int) (id int, d time.Duration, w *httptest.ResponseRecorder) {
	body := e.bodyOf(q)
	id, d = tr.timed("serve.handler", parent, qi, func() {
		w = httptest.NewRecorder()
		e.fx.nodes[s].srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	})
	return id, d, w
}

func (e *traceEnv) callLive(tr *tracer, parent, qi, q, s int, qt *lshensemble.LiveQueryTrace) (d time.Duration, found bool) {
	rec := e.fx.queryRec(q)
	ctx := context.Background()
	if qt != nil {
		ctx = lshensemble.WithLiveQueryTrace(ctx, qt)
	}
	_, d = tr.timed("live.query", parent, qi, func() {
		e.scratch, _ = e.fx.lives[s].QueryAppendContext(ctx, e.scratch[:0], rec.Sig, rec.Size, threshold)
	})
	return d, slices.Contains(e.scratch, e.fx.in.keys[q])
}

// topRung performs the workload's highest rung for one query: through the
// router, else into the library.
func (e *traceEnv) topRung(tr *tracer, qi, q int) (time.Duration, error) {
	var d time.Duration
	var found bool
	if e.fx.routerURL != "" {
		_, d, found = e.callRouter(tr, qi, q)
	} else {
		d, found = e.callLive(tr, 0, qi, q, 0, nil)
	}
	if !found {
		return 0, fmt.Errorf("traced query %d misses its own key at the top rung", q)
	}
	return d, nil
}

// replayTop times the top rung of every query with and without span
// recording; the median over the queries of traced ÷ untraced is the cost of
// recording. fleet_query makes the four calls of a query back to
// back, A B B A for one query and B A A B for the next, so that a drift across
// the four cancels between the two A and the two B, what the first call pays
// for cold caches falls on either side in turn, and a background seal or a
// slow second of the VM lands on both. Where a second call would find the
// first one's answer in the result cache (lib_query), the two
// calls are a whole pass apart, with a new generation in between.
func replayTop(e *traceEnv, t0 time.Time) (traced, untraced samples, err error) {
	on, off := &tracer{t0: t0, on: true}, &tracer{}
	traced, untraced = make(samples, len(e.queries)), make(samples, len(e.queries))
	call := func(tr *tracer, qi int, weight time.Duration) error {
		d, err := e.topRung(tr, qi, e.queries[qi])
		if tr.on {
			traced[qi] += d / weight
		} else {
			untraced[qi] += d / weight
		}
		return err
	}
	if e.fresh != nil {
		for _, pass := range [][2]*tracer{{on, off}, {off, on}} {
			e.fresh()
			for qi := range e.queries {
				if err := call(pass[qi%2], qi, 1); err != nil {
					return nil, nil, err
				}
			}
		}
		return traced, untraced, nil
	}
	for qi := range e.queries {
		order := []*tracer{on, off, off, on}
		if qi%2 == 1 {
			order = []*tracer{off, on, on, off}
		}
		for _, tr := range order {
			if err := call(tr, qi, 2); err != nil {
				return nil, nil, err
			}
		}
	}
	return traced, untraced, nil
}

// replayLadder runs every query up the rungs its workload has, query-major
// (all rungs of one query before the next query) so that drift in the
// process — a collection, a background seal — lands on every rung alike.
func replayLadder(e *traceEnv, tr *tracer) (*ladderRun, error) {
	fx := e.fx
	run := &ladderRun{}
	serving := len(fx.nodes) > 0
	routed := fx.routerURL != ""
	shards := len(fx.lives)
	d4 := make([]time.Duration, shards)
	d3 := make([]time.Duration, shards)
	d2 := make([]time.Duration, shards)

	e.newPass()
	for qi, q := range e.queries {
		var d5 time.Duration
		r5, found := 0, false
		if routed {
			r5, d5, found = e.callRouter(tr, qi, q)
			if !found {
				return nil, fmt.Errorf("traced query %d through the router misses its own key", q)
			}
			found = false // the shards must find it again on their own
		}
		r3 := make([]int, shards)
		for s := 0; s < shards; s++ {
			if serving {
				r4, d, hit, err := e.callShard(tr, r5, qi, q, s)
				if err != nil {
					return nil, fmt.Errorf("traced query %d to shard %d: %w", q, s, err)
				}
				d4[s], found = d, found || hit
				id, d, w := e.callHandler(tr, r4, qi, q, s)
				if w.Code != http.StatusOK {
					return nil, fmt.Errorf("traced query %d: handler of shard %d answered %d", q, s, w.Code)
				}
				r3[s], d3[s] = id, d
				run.reqBytes += len(e.bodyOf(q))
				run.respBytes += w.Body.Len()
			}
			var qt lshensemble.LiveQueryTrace
			d, hit := e.callLive(tr, r3[s], qi, q, s, &qt)
			d2[s], found = d, found || hit
			run.qt.queries++
			run.qt.segments += qt.Segments
			run.qt.buffered += qt.Buffered
			run.qt.probed += qt.SegmentsProbed
			run.qt.pruned += qt.SegmentsRangePruned + qt.SegmentsBloomPruned
			if qt.BufferScanned {
				run.qt.scanned++
			}
		}
		if !found {
			return nil, fmt.Errorf("traced query %d misses its own key on every shard", q)
		}
		// The slowest R4 picks the shard whose lower rungs enter the
		// subtraction: it set the time of the router's answer.
		rank := d2
		if serving {
			rank = d4
		}
		slow, fast := 0, 0
		for s := range rank {
			if rank[s] > rank[slow] {
				slow = s
			}
			if rank[s] < rank[fast] {
				fast = s
			}
		}
		total := d5
		for s := range d2 {
			total += d2[s]
			if serving {
				total += d4[s] + d3[s]
			}
		}
		run.live = append(run.live, d2[slow])
		if !serving {
			run.top = append(run.top, d2[slow])
			run.total = append(run.total, total)
			continue
		}
		// R0: the sketch a server computes for every request.
		vals := e.valuesOf(q)
		_, d0 := tr.timed("minhash.sketch", r3[slow], qi, func() { lshensemble.SketchStrings(fx.hasher, fx.in.keys[q], vals) })
		run.values += len(vals)
		run.minhash = append(run.minhash, d0)
		run.handler = append(run.handler, d3[slow])
		run.http = append(run.http, d4[slow])
		run.codec = append(run.codec, d3[slow]-d0-d2[slow])
		run.transport = append(run.transport, d4[slow]-d3[slow])
		run.skew = append(run.skew, float64(d4[slow])/float64(d4[fast]))
		run.total = append(run.total, total+d0)
		if routed {
			run.top = append(run.top, d5)
			run.route = append(run.route, d5-d4[slow])
		} else {
			run.top = append(run.top, d4[slow])
		}
	}
	return run, nil
}

// runTraced is the traced run of one workload: per-layer metrics only.
func runTraced(w workload, sc scale, seed uint64) (*report, error) {
	rep := newReport(w.name)
	fx, _, err := newFixture(w, sc, seed, 0)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	for _, d := range perLayerDefs {
		rep.set(d.Name, 0) // a layer the workload does not exercise reads 0
	}
	var seen tally
	stop := seen.watch(fx)

	e := &traceEnv{fx: fx, strs: make(map[int][]string), bodies: make(map[int][]byte)}
	if len(fx.nodes) == 0 {
		e.fresh = func() { bumpGeneration(fx.lives[0], fx.hasher) }
	}
	// The lap's single queries: sc.ladder of them, cycled, or where a pass
	// must not ask a query twice (fresh), as many of them as are distinct.
	asked := make(map[int]bool)
	for _, o := range fx.lap {
		if o.kind == opQuery && !(e.fresh != nil && asked[int(o.arg)]) {
			asked[int(o.arg)] = true
			e.queries = append(e.queries, int(o.arg))
		}
	}
	for i := 0; e.fresh == nil && len(e.queries) < sc.ladder; i++ {
		e.queries = append(e.queries, e.queries[i])
	}
	e.queries = e.queries[:min(sc.ladder, len(e.queries))]
	for _, nd := range fx.nodes {
		e.shardCli = append(e.shardCli, cluster.NewClient(nd.url, 2*time.Second))
	}

	// The top rung alone, with and without span recording, which doubles as
	// the warm pass; then the ladder with spans.
	tr := &tracer{t0: time.Now(), on: true}
	traced, untraced, err := replayTop(e, tr.t0)
	if err != nil {
		return nil, err
	}
	run, err := replayLadder(e, tr)
	if err != nil {
		return nil, err
	}
	rep.attempted += 3 * len(e.queries) // at least: the top rung twice, then the ladder
	ledger(rep, fx, run, traced, untraced)

	kernelRungs(rep, fx, e, sc)
	liveExtras(rep, fx, e, sc)
	if err := addLadder(rep, fx, tr, sc, seed); err != nil {
		return nil, err
	}
	stop()
	loadLadder(rep, w, fx, &seen)

	endStats, _ := fx.plannerTotals()
	rep.set("live.seals", float64(seen.seals))
	rep.set("live.merges", float64(seen.merges))
	rep.set("live.tombstones", float64(endStats.Tombstones))
	rep.set("live.signature_bytes", float64(endStats.SignatureBytes))
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.set("live.heap_mb", float64(m.HeapAlloc)/(1<<20))

	if err := storageLayers(rep, fx); err != nil {
		return nil, err
	}
	traceRuns = append(traceRuns, traceFile{Workload: w.name, Seed: seed, Spans: tr.spans})
	return rep, nil
}

// ledger turns the ladder into per-layer p50s, prints them, and checks that
// the subtraction is sound: no negative self time, and the self times add up
// to the top rung.
func ledger(rep *report, fx *fixture, run *ladderRun, traced, untraced samples) {
	top := run.top.p50()
	band := medianBand(run.total)
	router, transport, codec := run.route.bandMean(band), run.transport.bandMean(band), run.codec.bandMean(band)
	selfs := []struct {
		name string
		d    time.Duration
	}{
		{"cluster (router)", router},
		{"serve transport", transport},
		{"serve codec", codec},
		{"minhash", run.minhash.bandMean(band)},
		{"live (incl. lshforest, tune)", run.live.bandMean(band)},
	}
	// Each query's self times add up to its own top rung exactly, so their
	// band means add up to the band mean of the top rung; per-layer medians
	// taken one by one would not (parts skewed to the right sum to less than
	// the median of the whole). What can still go wrong is a negative part:
	// then the positive parts claim more than the whole.
	bandTop := run.top.bandMean(band)
	var sum time.Duration
	rep.note("ledger: µs per layer on the median requests (those with the total of their rungs within its p40–p60; top rung mean %.1f µs) of %d queries; top rung p50 %.1f µs:",
		us(bandTop), len(run.top), us(top))
	for _, s := range selfs {
		if s.d > 0 {
			sum += s.d
		}
		share := 0.0
		if bandTop > 0 {
			share = float64(s.d) / float64(bandTop)
		}
		rep.note("  %-30s %10.1f  %5.1f%%", s.name, us(s.d), 100*share)
		if s.d < 0 {
			rep.violate("self time of %s is negative at p50 (%.1f µs): the ladder does not subtract", s.name, us(s.d))
		}
	}
	attributed := 0.0
	if bandTop > 0 {
		attributed = float64(sum) / float64(bandTop)
	}
	rep.note("  attributed %.1f%% of the top rung", 100*attributed)
	if attributed < 0.95 || attributed > 1.05 {
		rep.violate("layer self times sum to %.1f%% of the top rung, want within 5%%", 100*attributed)
	}
	// Query by query, so that what one query costs more than another cancels.
	ratios := make([]float64, 0, len(traced))
	for i := range traced {
		if untraced[i] > 0 {
			ratios = append(ratios, float64(traced[i])/float64(untraced[i]))
		}
	}
	overhead := max(0, medianFloat(ratios)-1)
	rep.note("  top rung alone, p50 traced %.1f µs, untraced %.1f µs; median of traced ÷ untraced per query: tracing overhead %.1f%%",
		us(traced.p50()), us(untraced.p50()), 100*overhead)
	if overhead > 0.10 {
		rep.violate("tracing overhead %.3f, want <= 0.10", overhead)
	}
	outer := router + transport + codec
	if fx.routerURL != "" && float64(outer) <= 0.5*float64(bandTop) {
		rep.violate("cluster + serve self time is %.1f%% of the median routed request, want > 50%% behind a router", 100*float64(outer)/float64(bandTop))
	}

	rep.set("bench.trace_overhead_frac", overhead)
	rep.set("cluster.attributed_frac", attributed)
	rep.set("minhash.sketch_us", us(run.minhash.p50()))
	if n := len(run.minhash); n > 0 && run.values > 0 {
		rep.set("minhash.values_per_query", float64(run.values)/float64(n))
		rep.set("minhash.ns_per_value", float64(run.minhash.mean()*time.Duration(n))/float64(run.values))
	}
	rep.set("live.query_us", us(run.live.p50()))
	if q := run.qt.queries; q > 0 {
		rep.set("live.segments", float64(run.qt.segments)/float64(q))
		rep.set("live.buffered", float64(run.qt.buffered)/float64(q))
		rep.set("live.segments_probed_per_query", float64(run.qt.probed)/float64(q))
		if run.qt.segments > 0 {
			rep.set("live.pruned_frac", float64(run.qt.pruned)/float64(run.qt.segments))
		}
		rep.set("live.buffer_scan_frac", float64(run.qt.scanned)/float64(q))
	}
	if len(fx.nodes) > 0 {
		n := len(run.handler) * len(fx.nodes)
		rep.set("serve.handler_us", us(run.handler.p50()))
		rep.set("serve.codec_self_us", us(codec))
		rep.set("serve.http_us", us(run.http.p50()))
		rep.set("serve.transport_self_us", us(transport))
		rep.set("serve.req_bytes", float64(run.reqBytes)/float64(n))
		rep.set("serve.resp_bytes", float64(run.respBytes)/float64(n))
	}
	if fx.routerURL != "" {
		rep.set("cluster.query_us", us(top))
		rep.set("cluster.router_self_us", us(router))
		rep.set("cluster.slowest_shard_us", us(run.http.p50()))
		rep.set("cluster.shard_skew", medianFloat(run.skew))
		rep.set("cluster.fanout", float64(len(fx.nodes)))
	}
}

// kernelRungs is R1: the probe kernel on its own, over a one-segment
// core.Build of the indexed corpus, with the same queries.
func kernelRungs(rep *report, fx *fixture, e *traceEnv, sc scale) {
	recs := fx.records()
	opts := liveOptions(sc.seal).Options
	start := time.Now()
	idx, err := core.Build(recs, opts)
	if err != nil {
		rep.violate("core.Build over the indexed corpus: %v", err)
		return
	}
	rep.set("core.build_ms", ms(time.Since(start)))
	start = time.Now()
	enc := idx.AppendBinary(nil)
	rep.set("core.encode_ms", ms(time.Since(start)))
	start = time.Now()
	if _, _, err := core.Decode(enc); err != nil {
		rep.violate("core.Decode of a fresh encoding: %v", err)
	}
	rep.set("core.decode_ms", ms(time.Since(start)))

	var plan, probe, query, topk samples
	var params []tune.Params
	var ids []uint32
	candidates := 0
	for i, q := range e.queries {
		rec := fx.queryRec(q)
		t := time.Now()
		params = idx.PlanPartitions(params[:0], rec.Size, threshold)
		plan = append(plan, time.Since(t))
		t = time.Now()
		ids, _ = idx.QueryIDsPlannedAppend(ids[:0], rec.Sig, params)
		probe = append(probe, time.Since(t))
		t = time.Now()
		ids, _ = idx.QueryIDsAppend(ids[:0], rec.Sig, rec.Size, threshold)
		query = append(query, time.Since(t))
		candidates += len(ids)
		if i%8 == 0 { // top-k walks the whole threshold ladder: an eighth of the queries is sample enough
			t = time.Now()
			ids, _ = idx.QueryTopKIDs(ids[:0], rec.Sig, rec.Size, topK)
			topk = append(topk, time.Since(t))
		}
	}
	rep.set("tune.plan_us", us(plan.p50()))
	rep.set("lshforest.probe_us", us(probe.p50()))
	rep.set("core.query_us", us(query.p50()))
	rep.set("core.topk_us", us(topk.p50()))
	rep.set("core.candidates_per_query", float64(candidates)/float64(len(e.queries)))

	var res lshensemble.BatchResults
	var perQuery samples
	for _, batch := range batchesOf(fx, e.queries, sc.libBatchRows) {
		t := time.Now()
		_ = idx.QueryBatchInto(&res, batch, 0)
		perQuery = append(perQuery, time.Since(t)/time.Duration(len(batch)))
	}
	rep.set("core.batch_us_per_query", us(perQuery.p50()))
}

// batchesOf groups the replayed queries into batches of rows.
func batchesOf(fx *fixture, queries []int, rows int) [][]lshensemble.BatchQuery {
	var out [][]lshensemble.BatchQuery
	for lo := 0; lo+rows <= len(queries); lo += rows {
		b := make([]lshensemble.BatchQuery, rows)
		for r := range b {
			rec := fx.queryRec(queries[lo+r])
			b[r] = lshensemble.BatchQuery{Sig: rec.Sig, Size: rec.Size, Threshold: threshold}
		}
		out = append(out, b)
	}
	return out
}

// liveExtras times the live layer's other entry points on the first index,
// and counts allocations on the append-style query path, over the distinct
// queries of the replay. The two loops that ask the result cache start from
// the state the workload's traffic leaves it in.
func liveExtras(rep *report, fx *fixture, e *traceEnv, sc scale) {
	idx := fx.lives[0]
	seen := make(map[int]bool)
	var distinct []int
	for _, q := range e.queries {
		if !seen[q] {
			seen[q] = true
			distinct = append(distinct, q)
		}
	}
	var topk, perQuery samples
	for i, q := range distinct {
		if i%8 != 0 { // top-k walks the whole threshold ladder: an eighth of the queries is sample enough
			continue
		}
		rec := fx.queryRec(q)
		t := time.Now()
		idx.QueryTopK(rec.Sig, rec.Size, topK)
		topk = append(topk, time.Since(t))
	}
	rep.set("live.topk_us", us(topk.p50()))
	e.newPass()
	for _, batch := range batchesOf(fx, distinct, sc.libBatchRows) {
		t := time.Now()
		idx.QueryBatch(batch, 0)
		perQuery = append(perQuery, time.Since(t)/time.Duration(len(batch)))
	}
	rep.set("live.batch_us_per_query", us(perQuery.p50()))

	e.newPass()
	var before, after runtime.MemStats
	var dst []string
	runtime.ReadMemStats(&before)
	for _, q := range distinct {
		rec := fx.queryRec(q)
		dst = idx.QueryAppend(dst[:0], rec.Sig, rec.Size, threshold)
	}
	runtime.ReadMemStats(&after)
	rep.set("live.allocs_per_query", float64(after.Mallocs-before.Mallocs)/float64(len(distinct)))
}

// addLadder is the ladder for /add over fresh domains: sketch, live.Add, the
// handler in-process, the round trip to the shard, and the delete of what it
// added. Each rung adds under its own key, so none takes the replace path.
func addLadder(rep *report, fx *fixture, tr *tracer, sc scale, seed uint64) error {
	extra := genCorpus(sc.addLadder, seed^0xadd1adde)
	idx := fx.lives[0]
	var add, handler, del samples
	var client *cluster.Client
	if len(fx.nodes) > 0 {
		client = cluster.NewClient(fx.nodes[0].url, 2*time.Second)
	}
	for i, d := range extra.Domains {
		vals := valueStrings(d.Values)
		key := fmt.Sprintf("trace-add-%d", i)
		var rec lshensemble.DomainRecord
		root, _ := tr.timed("add.minhash.sketch", 0, i, func() { rec = lshensemble.SketchStrings(fx.hasher, key+"-live", vals) })
		var err error
		_, dAdd := tr.timed("add.live.add", root, i, func() { _, err = idx.Add(rec) })
		if err != nil {
			return fmt.Errorf("add ladder: %w", err)
		}
		add = append(add, dAdd)
		if client != nil {
			body := mustJSON(&serve.AddRequest{Key: key + "-handler", Values: vals})
			var w *httptest.ResponseRecorder
			_, dH := tr.timed("add.serve.handler", root, i, func() {
				w = httptest.NewRecorder()
				fx.nodes[0].srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/add", bytes.NewReader(body)))
			})
			if w.Code != http.StatusOK {
				return fmt.Errorf("add ladder: handler answered %d", w.Code)
			}
			handler = append(handler, dH)
			req := &serve.AddRequest{Key: key + "-http", Values: vals}
			if _, _ = tr.timed("add.serve.http", root, i, func() { _, err = client.Add(context.Background(), req) }); err != nil {
				return fmt.Errorf("add ladder: %w", err)
			}
		}
		_, dDel := tr.timed("add.live.delete", root, i, func() { idx.Delete(key + "-live") })
		del = append(del, dDel)
	}
	rep.attempted += len(extra.Domains)
	rep.set("live.add_us", us(add.p50()))
	rep.set("live.delete_us", us(del.p50()))
	rep.set("serve.add_handler_us", us(handler.p50()))
	return nil
}

// loadLadder drives the workload's own lap: fleet_query at each frozen rate
// (open loop), lib_query one call at a time. It yields the knee of the ladder,
// the tails, the generator's lateness and the cache hit ratios, and asserts
// the cache regime.
func loadLadder(rep *report, w workload, fx *fixture, seen *tally) {
	// replay sends one unmeasured lap and two measured ones and reads the
	// cache hit ratios of that traffic off the planner counters.
	replay := func(p phase, regime bool) *phaseResult {
		p.before = fx.before
		var own tally
		res := &phaseResult{ops: fx.lap}
		stopOwn, stopAll := own.watch(fx), seen.watch(fx)
		p.lap(res, false, fx.call)
		p.run(res, 2, fx.call)
		stopOwn()
		stopAll()
		rep.count(res)
		if regime {
			resultHit, planHit := own.checkRegime(rep, w)
			rep.set("live.result_cache_hit_ratio", resultHit)
			rep.set("live.plan_cache_hit_ratio", planHit)
		}
		return res
	}
	if fx.rates[1] == 0 {
		res := replay(phase{workers: 1}, true)
		rep.set("live.query_p95_us", us(res.latency(opQuery, 0.95)))
		rep.set("live.lap_topk_us", us(res.latency(opTopK, 0.50)))
		return
	}
	okRate := 0.0
	for i, rate := range fx.rates {
		res := replay(phase{rate: rate, workers: nproc}, i == 1)
		if i == 1 {
			rep.set("cluster.query_p99_ms", ms(res.latency(opQuery, 0.99)))
			rep.set("cluster.topk_p50_ms", ms(res.latency(opTopK, 0.50)))
			rep.set("bench.gen_late_p95_ms", ms(res.lateness(0.95)))
		}
		p95 := res.latency(opQuery, 0.95)
		kept := p95 <= latencyLimit && res.opsPerSecond() >= 0.95*rate
		if kept {
			okRate = rate
		}
		rep.note("rate r%d = %.0f/s: query p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, completed %.0f/s, generator late p95 %.3f ms, sustained %v",
			i+1, rate, ms(res.latency(opQuery, 0.50)), ms(p95), ms(res.latency(opQuery, 0.99)), res.opsPerSecond(), ms(res.lateness(0.95)), kept)
		rep.set(fmt.Sprintf("cluster.p95_ms_r%d", i+1), ms(p95))
	}
	rep.set("cluster.rate_ok_qps", okRate)
	rep.set("cluster.partials", float64(rep.partials))
}

// storageLayers times what the end-to-end run's storage stages are made of.
func storageLayers(rep *report, fx *fixture) error {
	idx := fx.lives[0]
	start := time.Now()
	idx.Flush()
	rep.set("live.seal_ms", ms(time.Since(start)))
	if fx.save != nil {
		start = time.Now()
		paths, size, err := fx.save()
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
		rep.set("segfile.save_ms", ms(time.Since(start)))
		rep.set("segfile.file_bytes", float64(size))
		start = time.Now()
		for _, p := range paths {
			booted, err := fx.boot(p)
			if err != nil {
				return fmt.Errorf("boot from %s: %w", p, err)
			}
			booted.Close()
		}
		rep.set("segfile.load_heap_ms", ms(time.Since(start)))
	}
	start = time.Now()
	idx.Compact()
	rep.set("live.compact_ms", ms(time.Since(start)))
	return nil
}
