package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lshensemble/internal/core"
	"lshensemble/internal/obs"
	"lshensemble/internal/serve"
)

// Options configure a Router.
type Options struct {
	// Ring shapes key placement (vnodes, bounded-load factor, replication).
	Ring RingOptions
	// ShardTimeout is the per-shard deadline on every forwarded write,
	// scattered query and health probe. A shard that misses it contributes
	// nothing to the merge and flips the response partial — it never stalls
	// the whole answer. The admin fan-out (/stats, /save, /compact) is not
	// under it; see fleetAdmin. Default 2s.
	ShardTimeout time.Duration
	// HealthInterval is how often the background checker probes every
	// shard's /healthz. Default 2s.
	HealthInterval time.Duration
	// HealthFailures is how many consecutive probe failures demote a shard
	// from the ring (one success promotes it back). Default 2.
	HealthFailures int
	// Logger receives access logs (Debug), demotion/promotion transitions
	// (Warn/Info) and 5xx logs, all keyed by trace_id. Nil means
	// slog.Default().
	Logger *slog.Logger
	// Registry receives router metrics under the "lshrouter" prefix. Nil
	// allocates a private registry (exposed via Registry()); ignored when
	// DisableMetrics.
	Registry *obs.Registry
	// DisableMetrics turns off metric collection and the /metrics endpoint;
	// trace-ID stamping and propagation stay on.
	DisableMetrics bool
}

func (o *Options) defaults() {
	o.Ring.defaults()
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 2 * time.Second
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.HealthFailures <= 0 {
		o.HealthFailures = 2
	}
}

// shard is one backend: a client plus health state owned by the checker.
type shard struct {
	name   string
	client *Client
	alive  atomic.Bool
	fails  int // consecutive probe failures; touched only by the checker

	// Per-shard metric children; nil when metrics are disabled.
	demotions  *obs.Counter
	promotions *obs.Counter
	errors     *obs.Counter
}

// incr bumps a counter that may be nil (metrics disabled).
func incr(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Router is a stateless scatter-gather front for a fleet of lshensembled
// shards. It implements http.Handler with the same wire protocol as a
// single shard, extended with partial-result fields:
//
//	POST /add, /delete    forwarded to the key's ring owners
//	POST /query, /query/topk, /query/batch
//	                      scattered to every live shard, merged
//	GET  /stats           per-shard stats, gathered
//	GET  /ring            membership, liveness, keyspace shares
//	GET  /healthz         200 while at least one shard is live
//	POST /compact, /save  fanned to every live shard
//
// Routers hold no key state: ownership is recomputed from the ring (a pure
// function of live membership), so any number of router instances in front
// of the same fleet agree without coordinating. Query merges deduplicate by
// key, which also makes a replicated fleet (Replication ≥ 2) answer each
// key once no matter how many owners hold it.
type Router struct {
	opts   Options
	shards []*shard // sorted by name, fixed at construction
	ring   atomic.Pointer[Ring]
	mux    *http.ServeMux

	logger     *slog.Logger
	reg        *obs.Registry
	httpm      *obs.HTTPMetrics
	shardsLive *obs.Gauge
	partials   *obs.Counter

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewRouter builds a router over the given shard base URLs. All shards
// start out live (the checker demotes unreachable ones after
// HealthFailures probes); call Start to begin probing.
func NewRouter(shardURLs []string, opts Options) (*Router, error) {
	opts.defaults()
	if len(shardURLs) == 0 {
		return nil, errors.New("cluster: at least one shard URL required")
	}
	names := append([]string(nil), shardURLs...)
	sort.Strings(names)
	r := &Router{opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	r.logger = opts.Logger
	if r.logger == nil {
		r.logger = slog.Default()
	}
	if !opts.DisableMetrics {
		r.reg = opts.Registry
		if r.reg == nil {
			r.reg = obs.NewRegistry()
		}
		r.httpm = obs.NewHTTPMetrics(r.reg, "lshrouter", r.logger)
		r.shardsLive = r.reg.Gauge("lshrouter_shards_live", "Shards currently in the ring.")
		r.reg.Gauge("lshrouter_shards_total", "Shards configured at startup.").Set(int64(len(shardURLs)))
		r.partials = r.reg.Counter("lshrouter_partial_responses_total",
			"Merged responses missing at least one shard's contribution.")
	}
	for i, name := range names {
		if name == "" || (i > 0 && name == names[i-1]) {
			return nil, fmt.Errorf("cluster: empty or duplicate shard URL %q", name)
		}
		s := &shard{name: name, client: NewClient(name, opts.ShardTimeout)}
		s.alive.Store(true)
		if r.reg != nil {
			s.demotions = r.reg.Counter("lshrouter_shard_demotions_total",
				"Health-checker demotions (shard dropped from the ring).", obs.L("shard", name))
			s.promotions = r.reg.Counter("lshrouter_shard_promotions_total",
				"Health-checker promotions (demoted shard rejoined the ring).", obs.L("shard", name))
			s.errors = r.reg.Counter("lshrouter_shard_errors_total",
				"Failed shard calls (timeouts, refusals, non-2xx).", obs.L("shard", name))
		}
		r.shards = append(r.shards, s)
	}
	r.rebuild()

	r.mux = http.NewServeMux()
	r.handle("POST /add", "add", r.handleAdd)
	r.handle("POST /delete", "delete", r.handleDelete)
	r.handle("POST /query", "query", r.handleQuery)
	r.handle("POST /query/topk", "query_topk", r.handleTopK)
	r.handle("POST /query/batch", "query_batch", r.handleBatch)
	r.handle("GET /stats", "stats", r.handleStats)
	r.handle("GET /ring", "ring", r.handleRing)
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.handle("POST /compact", "compact", r.handleCompact)
	r.handle("POST /save", "save", r.handleSave)
	if r.reg != nil {
		r.mux.Handle("GET /metrics", r.reg.Handler())
	}
	return r, nil
}

// handle mounts h wrapped in the metrics middleware, or in plain trace-ID
// stamping when metrics are disabled — either way every request carries a
// trace ID into the shard fan-out.
func (r *Router) handle(pattern, endpoint string, h http.HandlerFunc) {
	if r.httpm != nil {
		r.mux.Handle(pattern, r.httpm.Wrap(endpoint, h))
	} else {
		r.mux.Handle(pattern, obs.TraceMiddleware(h))
	}
}

// Registry returns the router's metric registry, nil when metrics are
// disabled.
func (r *Router) Registry() *obs.Registry { return r.reg }

// notePartial counts a merged response that is missing shard contributions.
func (r *Router) notePartial(failed []string) {
	if len(failed) > 0 && r.partials != nil {
		r.partials.Inc()
	}
}

func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// Start launches the background health checker.
func (r *Router) Start() {
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.opts.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.CheckHealth()
			}
		}
	}()
}

// Close stops the health checker. Idempotent; safe if Start was never
// called.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	select {
	case <-r.done:
	default:
		// Start was never called; done never closes.
	}
}

// CheckHealth probes every shard once, concurrently, and rebuilds the ring
// if liveness changed. The background checker calls this on its interval;
// tests call it directly for deterministic membership transitions.
func (r *Router) CheckHealth() {
	results := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, s := range r.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.opts.ShardTimeout)
			defer cancel()
			results[i] = s.client.Health(ctx)
		}(i, s)
	}
	wg.Wait()
	changed := false
	for i, s := range r.shards {
		if results[i] == nil {
			s.fails = 0
			if !s.alive.Load() {
				s.alive.Store(true)
				changed = true
				incr(s.promotions)
				r.logger.LogAttrs(context.Background(), slog.LevelInfo, "shard promoted",
					slog.String("shard", s.name))
			}
			continue
		}
		s.fails++
		if s.fails >= r.opts.HealthFailures && s.alive.Load() {
			s.alive.Store(false)
			changed = true
			incr(s.demotions)
			r.logger.LogAttrs(context.Background(), slog.LevelWarn, "shard demoted",
				slog.String("shard", s.name),
				slog.Int("consecutive_failures", s.fails),
				slog.String("error", results[i].Error()))
		}
	}
	if changed {
		r.rebuild()
	}
}

// rebuild recomputes the ring from the currently live shards.
func (r *Router) rebuild() {
	live := make([]string, 0, len(r.shards))
	for _, s := range r.shards {
		if s.alive.Load() {
			live = append(live, s.name)
		}
	}
	r.ring.Store(NewRing(live, r.opts.Ring))
	if r.shardsLive != nil {
		r.shardsLive.Set(int64(len(live)))
	}
}

// liveShards returns the shards currently in the ring.
func (r *Router) liveShards() []*shard {
	out := make([]*shard, 0, len(r.shards))
	for _, s := range r.shards {
		if s.alive.Load() {
			out = append(out, s)
		}
	}
	return out
}

func (r *Router) shardByName(name string) *shard {
	for _, s := range r.shards {
		if s.name == name {
			return s
		}
	}
	return nil
}

// --- router wire types ---
//
// Responses embed the shard types and add the degradation fields: Partial
// is true whenever at least one shard's contribution is missing, and Failed
// names the shards that missed it.

// RouterAddResponse acknowledges a routed ingest. Shards lists the owners
// that applied it; Partial means some owner did not (the write is durable
// on the listed shards only).
type RouterAddResponse struct {
	serve.AddResponse
	Shards  []string `json:"shards"`
	Failed  []string `json:"failed,omitempty"`
	Partial bool     `json:"partial"`
}

// RouterDeleteResponse acknowledges a routed delete; Deleted is true if any
// owner held the key.
type RouterDeleteResponse struct {
	serve.DeleteResponse
	Shards  []string `json:"shards"`
	Failed  []string `json:"failed,omitempty"`
	Partial bool     `json:"partial"`
}

// RouterQueryResponse is a merged containment answer.
type RouterQueryResponse struct {
	serve.QueryResponse
	Partial bool     `json:"partial"`
	Failed  []string `json:"failed,omitempty"`
}

// RouterTopKResponse is a merged ranked answer.
type RouterTopKResponse struct {
	serve.TopKResponse
	Partial bool     `json:"partial"`
	Failed  []string `json:"failed,omitempty"`
}

// RouterBatchResponse is a merged batch answer, row-aligned with the
// request.
type RouterBatchResponse struct {
	serve.BatchResponse
	Partial bool     `json:"partial"`
	Failed  []string `json:"failed,omitempty"`
}

// RouterFleetResponse gathers every live shard's answer to a fleet admin
// call, keyed by shard name: serve.StatsResponse for /stats and /compact,
// serve.SaveResponse for /save.
type RouterFleetResponse[T any] struct {
	Shards  map[string]T `json:"shards"`
	Partial bool         `json:"partial"`
	Failed  []string     `json:"failed,omitempty"`
}

// ShardInfo is one row of the /ring topology.
type ShardInfo struct {
	Name  string  `json:"name"`
	Alive bool    `json:"alive"`
	Share float64 `json:"share"` // keyspace fraction; 0 when demoted
}

// RingResponse describes the routing topology.
type RingResponse struct {
	Shards      []ShardInfo `json:"shards"`
	Replication int         `json:"replication"`
	Vnodes      int         `json:"vnodes"`
	LoadFactor  float64     `json:"load_factor"`
}

// --- write path: route by ring ---

// forEachOwner fans one write to the key's ring owners concurrently and
// reports which shards acknowledged. The per-call closure runs under the
// per-shard deadline.
func (r *Router) forEachOwner(ctx context.Context, key string, call func(context.Context, *shard) error) (acked, failed []string) {
	ring := r.ring.Load()
	owners := ring.Owners(key)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range owners {
		s := r.shardByName(name)
		if s == nil {
			continue
		}
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, r.opts.ShardTimeout)
			defer cancel()
			err := call(sctx, s)
			mu.Lock()
			if err != nil {
				failed = append(failed, s.name)
				incr(s.errors)
			} else {
				acked = append(acked, s.name)
			}
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	sort.Strings(acked)
	sort.Strings(failed)
	return acked, failed
}

func (r *Router) handleAdd(w http.ResponseWriter, req *http.Request) {
	var body serve.AddRequest
	if !serve.DecodeJSON(w, req, &body) {
		return
	}
	if body.Key == "" {
		serve.WriteError(w, http.StatusBadRequest, errors.New("key is required"))
		return
	}
	if len(r.liveShards()) == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, errors.New("no live shards"))
		return
	}
	var mu sync.Mutex
	var first serve.AddResponse
	got := false
	acked, failed := r.forEachOwner(req.Context(), body.Key, func(ctx context.Context, s *shard) error {
		resp, err := s.client.Add(ctx, &body)
		if err != nil {
			return err
		}
		mu.Lock()
		if !got {
			first, got = resp, true
		}
		mu.Unlock()
		return nil
	})
	if !got {
		serve.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("no owner accepted key %q (failed: %v)", body.Key, failed))
		return
	}
	r.notePartial(failed)
	serve.WriteJSON(w, http.StatusOK, RouterAddResponse{
		AddResponse: first, Shards: acked, Failed: failed, Partial: len(failed) > 0,
	})
}

func (r *Router) handleDelete(w http.ResponseWriter, req *http.Request) {
	var body serve.DeleteRequest
	if !serve.DecodeJSON(w, req, &body) {
		return
	}
	if body.Key == "" {
		serve.WriteError(w, http.StatusBadRequest, errors.New("key is required"))
		return
	}
	if len(r.liveShards()) == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, errors.New("no live shards"))
		return
	}
	var deleted atomic.Bool
	acked, failed := r.forEachOwner(req.Context(), body.Key, func(ctx context.Context, s *shard) error {
		resp, err := s.client.Delete(ctx, &body)
		if err != nil {
			return err
		}
		if resp.Deleted {
			deleted.Store(true)
		}
		return nil
	})
	if len(acked) == 0 {
		serve.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("no owner acknowledged delete of %q (failed: %v)", body.Key, failed))
		return
	}
	r.notePartial(failed)
	serve.WriteJSON(w, http.StatusOK, RouterDeleteResponse{
		DeleteResponse: serve.DeleteResponse{Deleted: deleted.Load()},
		Shards:         acked, Failed: failed, Partial: len(failed) > 0,
	})
}

// --- read path: scatter to all live shards, gather, merge ---

// scatter is fanOut with every leg under its own ShardTimeout deadline — the
// query fan-out, where a slow shard must cost a partial answer, not latency.
func scatter[T any](r *Router, ctx context.Context, call func(context.Context, *shard) (T, error)) (oks []T, failed []string) {
	return fanOut(r, ctx, func(ctx context.Context, s *shard) (T, error) {
		sctx, cancel := context.WithTimeout(ctx, r.opts.ShardTimeout)
		defer cancel()
		return call(sctx, s)
	})
}

// fanOut runs call against every live shard concurrently and returns the
// successful responses plus the names of the shards that failed. It never
// fails as a whole: a dead shard just lands in failed.
func fanOut[T any](r *Router, ctx context.Context, call func(context.Context, *shard) (T, error)) (oks []T, failed []string) {
	live := r.liveShards()
	type result struct {
		resp T
		err  error
		name string
	}
	results := make([]result, len(live))
	var wg sync.WaitGroup
	for i, s := range live {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			resp, err := call(ctx, s)
			results[i] = result{resp: resp, err: err, name: s.name}
		}(i, s)
	}
	wg.Wait()
	for i, res := range results {
		if res.err != nil {
			failed = append(failed, res.name)
			incr(live[i].errors)
		} else {
			oks = append(oks, res.resp)
		}
	}
	return oks, failed
}

// gatewayCheck writes the only two scatter-wide errors: an empty ring and a
// total blackout. One reachable shard among many means a partial answer,
// never a 5xx.
func (r *Router) gatewayCheck(w http.ResponseWriter, got, failedCount int) bool {
	if got > 0 {
		return true
	}
	if failedCount == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, errors.New("no live shards"))
	} else {
		serve.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("all %d live shards failed", failedCount))
	}
	return false
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	var body serve.QueryRequest
	if !serve.DecodeJSON(w, req, &body) {
		return
	}
	oks, failed := scatter(r, req.Context(), func(ctx context.Context, s *shard) (serve.QueryResponse, error) {
		return s.client.Query(ctx, &body)
	})
	if !r.gatewayCheck(w, len(oks), len(failed)) {
		return
	}
	merged := mergeMatches(oks)
	r.notePartial(failed)
	serve.WriteJSON(w, http.StatusOK, RouterQueryResponse{
		QueryResponse: serve.QueryResponse{Matches: merged, Count: len(merged)},
		Partial:       len(failed) > 0,
		Failed:        failed,
	})
}

func (r *Router) handleTopK(w http.ResponseWriter, req *http.Request) {
	var body serve.TopKRequest
	if !serve.DecodeJSON(w, req, &body) {
		return
	}
	k := body.K
	if k == 0 {
		k = 10
	}
	oks, failed := scatter(r, req.Context(), func(ctx context.Context, s *shard) (serve.TopKResponse, error) {
		return s.client.TopK(ctx, &body)
	})
	if !r.gatewayCheck(w, len(oks), len(failed)) {
		return
	}
	merged := mergeTopK(oks, k)
	r.notePartial(failed)
	serve.WriteJSON(w, http.StatusOK, RouterTopKResponse{
		TopKResponse: serve.TopKResponse{Matches: merged, Count: len(merged)},
		Partial:      len(failed) > 0,
		Failed:       failed,
	})
}

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	var body serve.BatchRequest
	if !serve.DecodeJSON(w, req, &body) {
		return
	}
	if len(body.Queries) == 0 {
		serve.WriteError(w, http.StatusBadRequest, errors.New("queries must be non-empty"))
		return
	}
	oks, failed := scatter(r, req.Context(), func(ctx context.Context, s *shard) (serve.BatchResponse, error) {
		return s.client.Batch(ctx, &body)
	})
	if !r.gatewayCheck(w, len(oks), len(failed)) {
		return
	}
	rows := mergeBatch(oks, len(body.Queries))
	r.notePartial(failed)
	serve.WriteJSON(w, http.StatusOK, RouterBatchResponse{
		BatchResponse: serve.BatchResponse{Rows: rows},
		Partial:       len(failed) > 0,
		Failed:        failed,
	})
}

// --- merges ---
//
// All merges are deterministic: dedup by key, sort by (score, key) or key,
// so the answer depends only on the multiset of shard responses, not on
// arrival order. Dedup also makes replicated fleets answer each key once.

// mergeMatches unions match lists, dedups by key, and sorts.
func mergeMatches(responses []serve.QueryResponse) []string {
	seen := make(map[string]struct{}, 64)
	merged := make([]string, 0, 64)
	for _, resp := range responses {
		for _, key := range resp.Matches {
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				merged = append(merged, key)
			}
		}
	}
	sort.Strings(merged)
	return merged
}

// mergeTopK dedups ranked matches by key keeping the best score, orders by
// (score desc, key asc), and truncates to k. Each shard returned its local
// top k, and any key in the global top k is in its owner's local top k, so
// the merge is exact.
func mergeTopK(responses []serve.TopKResponse, k int) []serve.TopKMatch {
	best := make(map[string]float64, 64)
	for _, resp := range responses {
		for _, m := range resp.Matches {
			if prev, ok := best[m.Key]; !ok || m.EstContainment > prev {
				best[m.Key] = m.EstContainment
			}
		}
	}
	merged := make([]serve.TopKMatch, 0, len(best))
	for key, est := range best {
		merged = append(merged, serve.TopKMatch{Key: key, EstContainment: est})
	}
	// TopKMatch is core.TopKResult plus JSON tags, so the conversion is free.
	slices.SortFunc(merged, func(a, b serve.TopKMatch) int {
		return core.CompareTopK(core.TopKResult(a), core.TopKResult(b))
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

// mergeBatch unions row-by-row: every shard answered the same batch, so
// row i of the merge is the dedup-union of every shard's row i.
func mergeBatch(responses []serve.BatchResponse, numRows int) []serve.QueryResponse {
	rows := make([]serve.QueryResponse, numRows)
	seen := make(map[string]struct{}, 64)
	for i := range rows {
		clear(seen)
		merged := []string{}
		for _, resp := range responses {
			if i >= len(resp.Rows) {
				continue
			}
			for _, key := range resp.Rows[i].Matches {
				if _, dup := seen[key]; !dup {
					seen[key] = struct{}{}
					merged = append(merged, key)
				}
			}
		}
		sort.Strings(merged)
		rows[i] = serve.QueryResponse{Matches: merged, Count: len(merged)}
	}
	return rows
}

// --- fleet admin ---

// fleetAdmin fans one admin call out to every live shard and answers with
// the per-shard responses. The legs run under the inbound request's context
// only: a snapshot or a full compaction legitimately outlasts the query
// ShardTimeout, and cutting it off there would report a shard that is still
// working as failed.
func fleetAdmin[T any](r *Router, w http.ResponseWriter, req *http.Request, call func(*Client, context.Context) (T, error)) {
	type named struct {
		name string
		resp T
	}
	oks, failed := fanOut(r, req.Context(), func(ctx context.Context, s *shard) (named, error) {
		resp, err := call(s.client, ctx)
		return named{name: s.name, resp: resp}, err
	})
	if !r.gatewayCheck(w, len(oks), len(failed)) {
		return
	}
	out := RouterFleetResponse[T]{Shards: make(map[string]T, len(oks)), Failed: failed, Partial: len(failed) > 0}
	for _, n := range oks {
		out.Shards[n.name] = n.resp
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	fleetAdmin(r, w, req, (*Client).Stats)
}

func (r *Router) handleSave(w http.ResponseWriter, req *http.Request) {
	fleetAdmin(r, w, req, (*Client).Save)
}

func (r *Router) handleCompact(w http.ResponseWriter, req *http.Request) {
	fleetAdmin(r, w, req, (*Client).Compact)
}

func (r *Router) handleRing(w http.ResponseWriter, _ *http.Request) {
	ring := r.ring.Load()
	shares := ring.Shares()
	out := RingResponse{
		Replication: r.opts.Ring.Replication,
		Vnodes:      r.opts.Ring.Vnodes,
		LoadFactor:  r.opts.Ring.LoadFactor,
	}
	for _, s := range r.shards {
		out.Shards = append(out.Shards, ShardInfo{
			Name:  s.name,
			Alive: s.alive.Load(),
			Share: shares[s.name],
		})
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	live := len(r.liveShards())
	status := http.StatusOK
	if live == 0 {
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, status, map[string]int{"live": live, "shards": len(r.shards)})
}
