package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lshensemble/internal/domain"
	"lshensemble/internal/minhash"
	"lshensemble/internal/obs"
	"lshensemble/internal/wire"
)

// Options configure a Router.
type Options struct {
	// Ring shapes key placement (vnodes, bounded-load factor, replication).
	Ring RingOptions
	// ShardTimeout is the per-shard deadline on every forwarded write and
	// health probe, and the one deadline all legs of a scattered query share
	// (they start together). A shard that misses it contributes nothing to
	// the merge and flips the response partial — it never stalls the whole
	// answer. The admin fan-out (/stats, /save, /compact) is not
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

	// family is the hash family the shard last reported on /stats, nil until
	// it has (or while it takes no record connections). Cleared when the
	// shard is promoted back or refuses a record — either way it may have
	// restarted as something else — and asked for again by the next learning
	// round. The shard is in the ring only while this is the fleet's family.
	family atomic.Pointer[HashFamily]

	// Per-shard metric children.
	demotions  *obs.Counter
	promotions *obs.Counter
	errors     *obs.Counter
}

// Router is a stateless scatter-gather front for a fleet of lshensembled
// shards. It implements http.Handler with the same wire protocol as a
// single shard, extended with partial-result fields:
//
//	POST /add, /delete    sent to the key's ring owners
//	POST /query, /query/topk, /query/batch
//	                      scattered to every shard in the ring, merged
//	GET  /stats           each shard's /stats body, as it came
//	GET  /ring            membership, liveness, keyspace shares, the family
//	GET  /healthz         200 while at least one shard is in the ring
//	POST /compact, /save  fanned to every shard in the ring
//
// Routers hold no key state: ownership is recomputed from the ring (a pure
// function of membership), so any number of router instances in front of
// the same fleet agree without coordinating. Query merges deduplicate by
// key, which also makes a replicated fleet (Replication ≥ 2) answer each
// key once no matter how many owners hold it.
//
// The fleet has one hash family (seed, num_hash), and membership in the ring
// is having it. The router learns each shard's family from its /stats, off
// the request path: on the first health tick, whenever a shard is promoted
// back, and once on demand if a request beats the first tick. On the first
// round that hears from any shard it adopts the family most shards report (a
// tie goes to the lowest-named shard's) and keeps it for its whole life:
// re-seeding a fleet means restarting its routers. A shard is in the ring
// while it passes its health checks and reports that family and record
// connections; one of another family is logged and counted as a demotion,
// and every round asks the shards outside again. While no family is known a
// request is a 503 with Retry-After.
//
// The data routes are the shard's own JSON front end (wire.Handler) over
// the ring, the sink: a body is checked as a shard checks it, before the
// family is asked for, then sketched once with the fleet's family, and its
// record (internal/wire) encoded once for a write's owners or every leg. A
// shard that refuses a record (it restarted under another seed) fails that
// leg — a query answer goes partial, its candidates never merged — and is
// held out of the ring until it reports the fleet's family again.
//
// Legs and writes do not go through net/http: each is one write and one read
// on a pooled record connection to the shard (the package comment has their
// lifecycle). Health probes and the admin calls stay on HTTP.
//
// The answer record carries the answer frame, which the router decodes
// without a JSON scanner into the same response types a JSON answer fills,
// so the merges and the client's answer do not depend on the form a shard
// answered in. A frame that is malformed, or has not the request's row
// count, fails its leg like a timeout does.
type Router struct {
	opts   Options
	shards []*shard // sorted by name, fixed at construction
	ring   atomic.Pointer[Ring]
	mux    *http.ServeMux

	// sketch is the fleet's hash family and its hasher, nil until adopted and
	// then fixed. memMu serializes whatever changes membership: the health
	// checker, a learning round and a shard held out for a refusal. learnOnce
	// is the on-demand round of a request that arrives before the first tick.
	sketch    atomic.Pointer[sketcher]
	memMu     sync.Mutex
	learnOnce sync.Once

	logger     *slog.Logger
	reg        *obs.Registry
	httpm      *obs.HTTPMetrics
	shardsLive *obs.Gauge
	partials   *obs.Counter

	stopOnce sync.Once
	started  atomic.Bool
	stop     chan struct{}
	done     chan struct{}
}

// NewRouter builds a router over the given shard base URLs. All shards
// start out live, outside the ring until they report the fleet's family
// (the checker demotes unreachable ones after HealthFailures probes); call
// Start to begin probing. A base URL must be http://host[:port], a trailing
// slash aside: record connections are plain TCP, so there is no https, and
// a shard's endpoints hang off its root, so there is no path.
func NewRouter(shardURLs []string, opts Options) (*Router, error) {
	opts.defaults()
	if len(shardURLs) == 0 {
		return nil, errors.New("cluster: at least one shard URL required")
	}
	names := make([]string, len(shardURLs))
	for i, raw := range shardURLs {
		names[i] = strings.TrimSuffix(raw, "/")
		u, err := url.Parse(names[i])
		if err != nil || u.Hostname() == "" || (&url.URL{Scheme: "http", Host: u.Host}).String() != names[i] {
			return nil, fmt.Errorf("cluster: shard URL %q is not http://host[:port]", raw)
		}
	}
	sort.Strings(names)
	r := &Router{opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	r.logger = opts.Logger
	if r.logger == nil {
		r.logger = slog.Default()
	}
	r.reg = obs.NewRegistry()
	r.httpm = obs.NewHTTPMetrics(r.reg, "lshrouter", r.logger)
	r.shardsLive = r.reg.Gauge("lshrouter_shards_live", "Shards currently in the ring.")
	r.reg.Gauge("lshrouter_shards_total", "Shards configured at startup.").Set(int64(len(shardURLs)))
	r.partials = r.reg.Counter("lshrouter_partial_responses_total",
		"Merged responses missing at least one shard's contribution.")
	for i, name := range names {
		if i > 0 && name == names[i-1] {
			return nil, fmt.Errorf("cluster: duplicate shard URL %q", name)
		}
		s := &shard{name: name, client: NewClient(name, opts.ShardTimeout)}
		s.alive.Store(true)
		s.demotions = r.reg.Counter("lshrouter_shard_demotions_total",
			"Health-checker demotions (shard dropped from the ring).", obs.L("shard", name))
		s.promotions = r.reg.Counter("lshrouter_shard_promotions_total",
			"Health-checker promotions (demoted shard rejoined the ring).", obs.L("shard", name))
		s.errors = r.reg.Counter("lshrouter_shard_errors_total",
			"Failed shard calls (timeouts, refusals, non-2xx).", obs.L("shard", name))
		s.client.dials = r.reg.Counter("lshrouter_shard_dials_total",
			"Record connections dialed to the shard; a climbing count is pool churn or a flapping shard.", obs.L("shard", name))
		r.shards = append(r.shards, s)
	}
	r.rebuild(nil)

	r.mux = http.NewServeMux()
	for _, o := range [...]wire.Op{wire.OpAdd, wire.OpDelete, wire.OpQuery, wire.OpTopK, wire.OpBatch} {
		r.handle("POST "+o.Path(), o.Endpoint(), wire.Handler(o, r.family, r.answer))
	}
	r.handle("GET /stats", "stats", fleetAdmin(r, http.MethodGet, "/stats"))
	r.handle("GET /ring", "ring", r.handleRing)
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.handle("POST /compact", "compact", fleetAdmin(r, http.MethodPost, "/compact"))
	r.handle("POST /save", "save", fleetAdmin(r, http.MethodPost, "/save"))
	r.mux.Handle("GET /metrics", r.reg.Handler())
	return r, nil
}

// handle mounts h wrapped in the metrics middleware, which also stamps the
// trace ID every request carries into the shard fan-out.
func (r *Router) handle(pattern, endpoint string, h http.HandlerFunc) {
	r.mux.Handle(pattern, r.httpm.Wrap(endpoint, h))
}

// Registry returns the router's metric registry.
func (r *Router) Registry() *obs.Registry { return r.reg }

// notePartial counts a merged response that is missing shard contributions.
func (r *Router) notePartial(failed []string) {
	if len(failed) > 0 {
		r.partials.Inc()
	}
}

func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// Start launches the background health checker.
func (r *Router) Start() {
	r.started.Store(true)
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

// Close stops the health checker and releases the shard connections: the
// idle HTTP keep-alives and the record pools. A leg in flight finishes, and
// its record connection is closed after it. Idempotent; safe if Start was
// never called.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	if r.started.Load() {
		<-r.done
	}
	for _, s := range r.shards {
		s.client.Close()
	}
}

// CheckHealth probes every shard once, concurrently, rebuilds the ring if
// liveness changed, and runs a learning round. The background checker calls
// this on its interval; tests call it directly for deterministic membership
// transitions.
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
	r.memMu.Lock()
	changed := false
	for i, s := range r.shards {
		if results[i] == nil {
			s.fails = 0
			if !s.alive.Load() {
				s.alive.Store(true)
				s.family.Store(nil) // it may have come back as something else
				changed = true
				s.promotions.Inc()
				r.logger.LogAttrs(context.Background(), slog.LevelInfo, "shard promoted",
					slog.String("shard", s.name))
			}
			continue
		}
		s.fails++
		if s.fails >= r.opts.HealthFailures && s.alive.Load() {
			s.alive.Store(false)
			changed = true
			s.demotions.Inc()
			r.logger.LogAttrs(context.Background(), slog.LevelWarn, "shard demoted",
				slog.String("shard", s.name),
				slog.Int("consecutive_failures", s.fails),
				slog.String("error", results[i].Error()))
		}
	}
	if changed {
		r.rebuild(r.sketch.Load())
	}
	r.memMu.Unlock()
	r.learnFamilies()
}

// HashFamily identifies the MinHash family a shard sketches with. Signatures
// are comparable only within one family.
type HashFamily struct {
	Seed    uint64 `json:"seed"`
	NumHash int    `json:"num_hash"`
}

// sketcher is the fleet's hash family, ready to sketch.
type sketcher struct {
	HashFamily
	hasher *minhash.Hasher
}

// learnFamilies is a learning round: it asks every live shard outside the
// ring for its /stats, adopts the fleet's family on the first round that
// hears one, and rebuilds the ring. The fetches run on a background context,
// never a client's: they carry no request's trace ID into the shard logs and
// a failure is retried on the next round, not counted as a shard error.
func (r *Router) learnFamilies() {
	r.memMu.Lock()
	defer r.memMu.Unlock()
	reported := make([]*HashFamily, len(r.shards))
	var wg sync.WaitGroup
	for i, s := range r.shards {
		if !s.alive.Load() || member(s, r.sketch.Load()) {
			continue
		}
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.opts.ShardTimeout)
			defer cancel()
			var st struct { // of the shard's /stats, only what names its family
				HashFamily
				Records bool `json:"records"`
			}
			err := s.client.do(ctx, http.MethodGet, "/stats", nil, &st)
			switch {
			case err != nil:
				r.logger.LogAttrs(ctx, slog.LevelDebug, "shard hash family not learned",
					slog.String("shard", s.name), slog.String("error", err.Error()))
			case !st.Records || st.NumHash <= 0 || st.NumHash > domain.MaxNumHash:
				r.logger.LogAttrs(ctx, slog.LevelDebug, "shard takes no record legs",
					slog.String("shard", s.name), slog.Int("num_hash", st.NumHash))
				s.family.Store(nil)
			default:
				reported[i] = &st.HashFamily
			}
		}(i, s)
	}
	wg.Wait()
	adopted := r.sketch.Load()
	sk := adopted
	if sk == nil { // nobody is in the ring: every live shard was asked
		sk = adoptFamily(reported)
	}
	for i, s := range r.shards {
		f := reported[i]
		if f == nil {
			continue
		}
		if prev := s.family.Swap(f); sk != nil && *f != sk.HashFamily && (prev == nil || *prev != *f) {
			s.demotions.Inc()
			r.logger.LogAttrs(context.Background(), slog.LevelWarn, "shard demoted", slog.String("shard", s.name),
				slog.String("error", fmt.Sprintf("hash family seed %d num_hash %d, the fleet's is seed %d num_hash %d",
					f.Seed, f.NumHash, sk.Seed, sk.NumHash)))
		}
	}
	r.rebuild(sk)
	if adopted == nil && sk != nil { // after the ring: who sees the family sees its members
		r.sketch.Store(sk)
		r.logger.LogAttrs(context.Background(), slog.LevelInfo, "hash family adopted; sketching at the router",
			slog.Uint64("seed", sk.Seed), slog.Int("num_hash", sk.NumHash))
	}
}

// adoptFamily returns the family the most shards reported, nil when none
// did; a tie goes to the family of the lowest-named shard.
func adoptFamily(reported []*HashFamily) *sketcher {
	count := map[HashFamily]int{}
	for _, f := range reported {
		if f != nil {
			count[*f]++
		}
	}
	var best *HashFamily
	for _, f := range reported { // by shard name, so the first of a tie wins
		if f != nil && (best == nil || count[*f] > count[*best]) {
			best = f
		}
	}
	if best == nil {
		return nil
	}
	return &sketcher{HashFamily: *best, hasher: minhash.NewHasher(best.NumHash, best.Seed)}
}

// member reports whether s belongs in the ring of family sk: live, and of
// that family.
func member(s *shard, sk *sketcher) bool {
	f := s.family.Load()
	return s.alive.Load() && sk != nil && f != nil && *f == sk.HashFamily
}

// fleet returns the fleet's sketcher. The first request to find none runs the
// learning round the first health tick would have (every shard starts out
// live, so no promotion is coming to trigger it); requests racing it wait for
// that one round. With still no family it is a 503 with Retry-After.
func (r *Router) fleet() (*sketcher, error) {
	if sk := r.sketch.Load(); sk != nil {
		return sk, nil
	}
	r.learnOnce.Do(r.learnFamilies)
	if sk := r.sketch.Load(); sk != nil {
		return sk, nil
	}
	return nil, &wire.Refusal{Status: http.StatusServiceUnavailable, Err: errors.New("no shard has reported its hash family yet"),
		RetryAfter: int(math.Ceil(r.opts.HealthInterval.Seconds()))}
}

// holdOut takes out of the ring every shard that answered a record the
// router had validated with a 4xx: what it refused is the family, so the next
// learning round asks it again.
func (r *Router) holdOut(shards []*shard, errs []error) {
	changed := false
	for i, err := range errs {
		var se *StatusError
		if errors.As(err, &se) && se.Status/100 == 4 && shards[i].family.Swap(nil) != nil {
			changed = true
		}
	}
	if changed {
		r.memMu.Lock()
		r.rebuild(r.sketch.Load())
		r.memMu.Unlock()
	}
}

// rebuild recomputes the ring from the shards of family sk. Callers hold
// memMu, but at construction.
func (r *Router) rebuild(sk *sketcher) {
	live := make([]string, 0, len(r.shards))
	for _, s := range r.shards {
		if member(s, sk) {
			live = append(live, s.name)
		}
	}
	r.ring.Store(NewRing(live, r.opts.Ring))
	r.shardsLive.Set(int64(len(live)))
}

// liveShards returns the shards currently in the ring.
func (r *Router) liveShards() []*shard {
	out := make([]*shard, 0, len(r.shards))
	sk := r.sketch.Load()
	for _, s := range r.shards {
		if member(s, sk) {
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
// on the listed shards only). Replaced is true if any owner held the key.
type RouterAddResponse struct {
	wire.AddResponse
	Shards  []string `json:"shards"`
	Failed  []string `json:"failed,omitempty"`
	Partial bool     `json:"partial"`
}

// RouterDeleteResponse acknowledges a routed delete; Deleted is true if any
// owner held the key.
type RouterDeleteResponse struct {
	wire.DeleteResponse
	Shards  []string `json:"shards"`
	Failed  []string `json:"failed,omitempty"`
	Partial bool     `json:"partial"`
}

// RouterQueryResponse is a merged containment answer.
type RouterQueryResponse struct {
	wire.QueryResponse
	Partial bool     `json:"partial"`
	Failed  []string `json:"failed,omitempty"`
}

// RouterTopKResponse is a merged ranked answer.
type RouterTopKResponse struct {
	wire.TopKResponse
	Partial bool     `json:"partial"`
	Failed  []string `json:"failed,omitempty"`
}

// RouterBatchResponse is a merged batch answer, row-aligned with the
// request.
type RouterBatchResponse struct {
	wire.BatchResponse
	Partial bool     `json:"partial"`
	Failed  []string `json:"failed,omitempty"`
}

// RouterFleetResponse gathers every live shard's answer to a fleet admin
// call, keyed by shard name: its JSON body as it came (T is json.RawMessage),
// which the router relays without linking the daemon's types.
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
	// Family is the hash family the shard reported, absent until it has.
	Family *HashFamily `json:"family,omitempty"`
}

// RingResponse describes the routing topology.
type RingResponse struct {
	Shards      []ShardInfo `json:"shards"`
	Replication int         `json:"replication"`
	Vnodes      int         `json:"vnodes"`
	LoadFactor  float64     `json:"load_factor"`
	// Family is the fleet's hash family, null until the router adopts one.
	Family *HashFamily `json:"family"`
}

// --- legs: records to a set of shards ---

// fanOut runs call against each of shards concurrently and returns, shard by
// shard, the answer or the error. It never fails as a whole. The last
// shard's call runs on the calling goroutine, whose stack has already grown:
// a write to a single owner runs on the handler's alone.
func fanOut[T any](ctx context.Context, shards []*shard, call func(context.Context, *shard) (T, error)) ([]*shard, []T, []error) {
	resps := make([]T, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		if i == len(shards)-1 {
			resps[i], errs[i] = call(ctx, s)
			break
		}
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			resps[i], errs[i] = call(ctx, s)
		}(i, s)
	}
	wg.Wait()
	return shards, resps, errs
}

// legs sends one record to each of shards and gathers the answers, each
// decoded by call. The legs start together, so they share one ShardTimeout
// deadline: a slow shard costs a partial answer, not latency. A shard that
// answers with a 4xx is held out of the ring.
func legs[T any](r *Router, ctx context.Context, shards []*shard, call func(context.Context, *shard) (T, error)) (oks []T, failed []string, refusal *wire.Refusal) {
	ctx, cancel := context.WithTimeout(ctx, r.opts.ShardTimeout)
	defer cancel()
	shards, resps, errs := fanOut(ctx, shards, call)
	r.holdOut(shards, errs)
	return gather(shards, resps, errs)
}

// gather splits a fan-out into the answers and the names of the shards that
// failed, counting each failure against its shard — unless the fan-out was
// refused: not one answer, and every shard returned the same 4xx with the
// same message. That is the request's fault, not the shards', so nothing is
// counted and the refusal comes back for the caller to relay.
func gather[T any](live []*shard, resps []T, errs []error) (oks []T, failed []string, refusal *wire.Refusal) {
	for i, err := range errs {
		if err == nil {
			oks = append(oks, resps[i])
		} else {
			failed = append(failed, live[i].name)
		}
	}
	if len(oks) == 0 {
		if refusal = sameRefusal(errs); refusal != nil {
			return nil, failed, refusal
		}
	}
	for i, err := range errs {
		if err != nil {
			live[i].errors.Inc()
		}
	}
	return oks, failed, nil
}

// sameRefusal returns the one 4xx every leg answered, in the shards' status
// and words; nil unless all did and alike.
func sameRefusal(errs []error) *wire.Refusal {
	var first *StatusError
	for _, err := range errs {
		var se *StatusError
		if !errors.As(err, &se) || se.Status/100 != 4 {
			return nil
		}
		if first == nil {
			first = se
		} else if se.Status != first.Status || se.Message != first.Message {
			return nil
		}
	}
	if first == nil {
		return nil
	}
	return &wire.Refusal{Status: first.Status, Err: errors.New(first.Message)}
}

// --- the ring: the front end's sink ---

// family is the front end's hash family at the router: the fleet's. A batch
// whose record would be over the shards' request limit is refused here, once
// the family says how long a signature is and before any row is sketched: a
// signature is a fixed 8·num_hash bytes however few values it stands for, so
// a batch of very many small queries is larger as a record than raw.
func (r *Router) family(o wire.Op, rows int) (*minhash.Hasher, error) {
	sk, err := r.fleet()
	if err != nil {
		return nil, err
	}
	if n := wire.RecordLen(o, rows, sk.NumHash); o == wire.OpBatch && n > wire.MaxRequestBody {
		return nil, fmt.Errorf("%d queries sketch to %d bytes, over the %d-byte request limit: split the batch", rows, n, wire.MaxRequestBody)
	}
	return sk.hasher, nil
}

// answer is the ring's sink. A write is one record to its key's owners; a
// query is one record, encoded once, scattered to every shard in the ring,
// and the answers merged. A batch's workers go out as the client asked them:
// each shard caps them at its own GOMAXPROCS.
func (r *Router) answer(ctx context.Context, req *wire.Request) (any, error) {
	sk := r.sketch.Load() // family let the request through, so it is adopted
	switch req.Op {
	case wire.OpAdd:
		rec := domain.Record{Key: req.Key, Size: req.Rows[0].Size, Sig: req.Rows[0].Sig}
		acked, failed, replaced, err := r.write(ctx, req.Key, req.Op, wire.AppendAddRecord(nil, sk.Seed, rec))
		if err != nil {
			return nil, err
		}
		add := wire.AddResponse{Replaced: replaced, Size: rec.Size}
		return &RouterAddResponse{AddResponse: add, Shards: acked, Failed: failed, Partial: len(failed) > 0}, nil
	case wire.OpDelete:
		acked, failed, deleted, err := r.write(ctx, req.Key, req.Op, wire.AppendDeleteRecord(nil, req.Key))
		if err != nil {
			return nil, err
		}
		del := wire.DeleteResponse{Deleted: deleted}
		return &RouterDeleteResponse{DeleteResponse: del, Shards: acked, Failed: failed, Partial: len(failed) > 0}, nil
	}
	body := make([]byte, 0, wire.RecordLen(req.Op, len(req.Rows), sk.NumHash))
	switch req.Op {
	case wire.OpQuery:
		oks, failed, err := scatter[wire.QueryResponse](r, ctx, req, wire.AppendQueryRecord(body, sk.Seed, req.Rows[0]))
		if err != nil {
			return nil, err
		}
		lists := make([][]string, len(oks))
		for i := range oks {
			lists[i] = oks[i].Matches
		}
		merged := mergeSorted(lists)
		resp := wire.QueryResponse{Matches: merged, Count: len(merged)}
		return &RouterQueryResponse{QueryResponse: resp, Partial: len(failed) > 0, Failed: failed}, nil
	case wire.OpTopK:
		oks, failed, err := scatter[wire.TopKResponse](r, ctx, req, wire.AppendTopKRecord(body, sk.Seed, req.K, req.Rows[0].Size, req.Rows[0].Sig))
		if err != nil {
			return nil, err
		}
		merged := mergeTopK(oks, req.K)
		resp := wire.TopKResponse{Matches: merged, Count: len(merged)}
		return &RouterTopKResponse{TopKResponse: resp, Partial: len(failed) > 0, Failed: failed}, nil
	}
	oks, failed, err := scatter[wire.BatchResponse](r, ctx, req, wire.AppendBatchRecord(body, sk.Seed, req.Workers, req.Rows))
	if err != nil {
		return nil, err
	}
	resp := wire.BatchResponse{Rows: mergeBatch(oks, len(req.Rows))}
	return &RouterBatchResponse{BatchResponse: resp, Partial: len(failed) > 0, Failed: failed}, nil
}

// write sends one write record of op o to key's ring owners. It returns the
// owners that acknowledged and those that failed, each sorted, and whether
// any that acknowledged replaced or deleted the key. With no owner in the
// ring, or none that acknowledged, it returns the refusal to answer with
// instead: one every owner gave alike is relayed, anything else is a 502.
func (r *Router) write(ctx context.Context, key string, o wire.Op, body []byte) (acked, failed []string, flag bool, err error) {
	var owners []*shard
	for _, name := range r.ring.Load().Owners(key) {
		if s := r.shardByName(name); s != nil {
			owners = append(owners, s)
		}
	}
	if len(owners) == 0 {
		return nil, nil, false, &wire.Refusal{Status: http.StatusServiceUnavailable, Err: errors.New("no live shards")}
	}
	var flagged atomic.Bool
	acked, failed, refusal := legs(r, ctx, owners, func(ctx context.Context, s *shard) (string, error) {
		f, err := s.client.write(ctx, o, body)
		if f {
			flagged.Store(true)
		}
		return s.name, err
	})
	sort.Strings(acked)
	sort.Strings(failed)
	switch {
	case len(acked) > 0:
		r.notePartial(failed)
		return acked, failed, flagged.Load(), nil
	case refusal != nil:
		return nil, nil, false, refusal
	}
	return nil, nil, false, &wire.Refusal{Status: http.StatusBadGateway,
		Err: fmt.Errorf("no owner acknowledged %s of %q (failed: %v)", o, key, failed)}
}

// scatter sends one query's record, body, to every shard in the ring and
// gathers the answers, each decoded as the answer to the request's rows. A
// scatter that got none returns gatewayCheck's refusal.
func scatter[T any](r *Router, ctx context.Context, req *wire.Request, body []byte) ([]T, []string, error) {
	oks, failed, refusal := legs(r, ctx, r.liveShards(), func(ctx context.Context, s *shard) (T, error) {
		var out T
		return out, s.client.leg(ctx, req.Op, body, len(req.Rows), &out)
	})
	if err := gatewayCheck(len(oks), failed, refusal); err != nil {
		return nil, nil, err
	}
	r.notePartial(failed)
	return oks, failed, nil
}

// gatewayCheck returns the scatter-wide refusals: an empty ring, a request
// every shard refused alike (relayed with the shards' status and message),
// and a total blackout. One reachable shard among many means a partial
// answer, never a 5xx.
func gatewayCheck(got int, failed []string, refusal *wire.Refusal) error {
	switch {
	case got > 0:
		return nil
	case refusal != nil:
		return refusal
	case len(failed) == 0:
		return &wire.Refusal{Status: http.StatusServiceUnavailable, Err: errors.New("no live shards")}
	}
	return &wire.Refusal{Status: http.StatusBadGateway, Err: fmt.Errorf("all %d live shards failed", len(failed))}
}

// --- merges ---
//
// All merges are deterministic: dedup by key, order by (score, key) or key,
// so the answer depends only on the multiset of shard responses, not on
// arrival order. Dedup also makes replicated fleets answer each key once.

// mergeSorted unions the shards' match lists into one sorted list with each
// key once. A shard's list arrives sorted and duplicate-free (DecodeAnswer
// refuses any other), so this is a k-way merge that drops equal neighbours:
// no set, no sort.
func mergeSorted(lists [][]string) []string {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	merged := make([]string, 0, total)
	heads := make([]int, len(lists))
	for {
		best := -1
		for i, l := range lists {
			if heads[i] < len(l) && (best < 0 || l[heads[i]] < lists[best][heads[best]]) {
				best = i
			}
		}
		if best < 0 {
			return merged
		}
		key := lists[best][heads[best]]
		heads[best]++
		if n := len(merged); n == 0 || key != merged[n-1] {
			merged = append(merged, key)
		}
	}
}

// mergeTopK dedups ranked matches by key keeping the best score, orders by
// (score desc, key asc), and truncates to k. Each shard returned its local
// top k, and any key in the global top k is in its owner's local top k, so
// the merge is exact.
func mergeTopK(responses []wire.TopKResponse, k int) []wire.TopKMatch {
	best := make(map[string]float64, 64)
	for _, resp := range responses {
		for _, m := range resp.Matches {
			if prev, ok := best[m.Key]; !ok || m.EstContainment > prev {
				best[m.Key] = m.EstContainment
			}
		}
	}
	merged := make([]wire.TopKMatch, 0, len(best))
	for key, est := range best {
		merged = append(merged, wire.TopKMatch{Key: key, EstContainment: est})
	}
	// TopKMatch is domain.TopKResult plus JSON tags, so the conversion is free.
	slices.SortFunc(merged, func(a, b wire.TopKMatch) int {
		return domain.CompareTopK(domain.TopKResult(a), domain.TopKResult(b))
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

// mergeBatch merges row by row: every shard answered the same batch, so row
// i of the merge is mergeSorted over every shard's row i.
func mergeBatch(responses []wire.BatchResponse, numRows int) []wire.QueryResponse {
	rows := make([]wire.QueryResponse, numRows)
	lists := make([][]string, 0, len(responses))
	for i := range rows {
		lists = lists[:0]
		for _, resp := range responses {
			if i < len(resp.Rows) {
				lists = append(lists, resp.Rows[i].Matches)
			}
		}
		merged := mergeSorted(lists)
		rows[i] = wire.QueryResponse{Matches: merged, Count: len(merged)}
	}
	return rows
}

// --- fleet admin ---

// fleetAdmin serves one admin call fanned out to every shard in the ring,
// answered with each shard's JSON body as it came. The legs run under the
// inbound request's context only: a snapshot or a full compaction
// legitimately outlasts the query ShardTimeout, and cutting it off there
// would report a shard that is still working as failed.
func fleetAdmin(r *Router, method, path string) http.HandlerFunc {
	type named struct {
		name string
		resp json.RawMessage
	}
	return func(w http.ResponseWriter, req *http.Request) {
		if _, err := r.fleet(); err != nil {
			wire.WriteRefusal(w, err)
			return
		}
		oks, failed, refusal := gather(fanOut(req.Context(), r.liveShards(), func(ctx context.Context, s *shard) (named, error) {
			var resp json.RawMessage // the shard's body as it came
			err := s.client.do(ctx, method, path, nil, &resp)
			return named{name: s.name, resp: resp}, err
		}))
		if err := gatewayCheck(len(oks), failed, refusal); err != nil {
			wire.WriteRefusal(w, err)
			return
		}
		out := RouterFleetResponse[json.RawMessage]{Shards: make(map[string]json.RawMessage, len(oks)), Failed: failed, Partial: len(failed) > 0}
		for _, n := range oks {
			out.Shards[n.name] = n.resp
		}
		wire.WriteJSON(w, http.StatusOK, out)
	}
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
			Name:   s.name,
			Alive:  s.alive.Load(),
			Share:  shares[s.name],
			Family: s.family.Load(),
		})
	}
	if sk := r.sketch.Load(); sk != nil {
		out.Family = &sk.HashFamily
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	live := len(r.liveShards())
	status := http.StatusOK
	if live == 0 {
		status = http.StatusServiceUnavailable
	}
	wire.WriteJSON(w, status, map[string]int{"live": live, "shards": len(r.shards)})
}
