// Package serve is the daemon: the sink that answers the wire's requests
// (internal/wire) from one live LSH Ensemble index, behind cmd/lshensembled
// and every shard cmd/lshrouter scatters to. It owns Server with its index
// sink, record serving, the admin endpoints, snapshot files and metrics.
//
// Queries hit the live index's lock-free snapshot path and never contend
// with ingest; Add and Delete never block queries either. Every JSON route
// is wire.Handler over this sink, and a record goes through the same check
// and sink, so both forms are refused in the same words, move the same
// series, write the same access-log and slow-query lines (keyed by the
// trace ID) and get the same rows and scores; an add record is stored
// exactly as the JSON /add of the same values would be.
//
// Every query threads its context into the index, so a client that hangs
// up — or a router whose scatter deadline expires — stops the in-flight
// work instead of burning CPU on an answer nobody will read. A record runs
// under the deadline it carries; the shard reads nothing while it runs, so
// a router that hangs up mid-query is noticed when the answer is written or
// that deadline passes, whichever comes first, and the connection closes.
package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"lshensemble"
	"lshensemble/internal/obs"
	"lshensemble/internal/segfile"
	"lshensemble/internal/wire"
)

// Server serves one live index over HTTP. It implements http.Handler.
type Server struct {
	idx    *lshensemble.LiveIndex
	hasher *lshensemble.Hasher
	seed   uint64
	// snapshotPath is the only file the daemon will write ("" disables
	// /save); the path is fixed at startup, not client-controlled.
	snapshotPath string
	saveMu       sync.Mutex
	mux          *http.ServeMux

	logger    *slog.Logger
	reg       *obs.Registry
	httpm     *obs.HTTPMetrics
	slowQuery time.Duration
	// queryLat holds each query endpoint's latency histogram, indexed by op. A
	// handler takes one measurement per request — the index call — and that
	// duration is both observed here and what the slow-query log compares and
	// prints. Every call that reached the index counts, an answer from the
	// result cache and a canceled call included.
	// sketched counts the endpoint's query records.
	queryLat [numOps]*obs.Histogram
	sketched [numOps]*obs.Counter
	// endpoints holds each shape's HTTP series, which its records feed too.
	endpoints [numRecordOps]*obs.Endpoint

	// closing ends the record connections (CloseRecords); recMu orders an
	// upgrade against it and records counts the connections' loops.
	closing    context.Context
	endRecords context.CancelFunc
	recMu      sync.Mutex
	records    sync.WaitGroup
}

// The wire's request shapes index the daemon's series; the queries come first.
const numOps, numRecordOps = wire.OpAdd, wire.OpDelete + 1

// The wire types bench/ compiles against under this package's name.
type (
	QueryRequest  = wire.QueryRequest  // held for bench/ until ROADMAP item 3 (a)
	QueryResponse = wire.QueryResponse // held for bench/ until ROADMAP item 3 (a)
	TopKRequest   = wire.TopKRequest   // held for bench/ until ROADMAP item 3 (a)
	TopKMatch     = wire.TopKMatch     // held for bench/ until ROADMAP item 3 (a)
	BatchRequest  = wire.BatchRequest  // held for bench/ until ROADMAP item 3 (a)
	AddRequest    = wire.AddRequest    // held for bench/ until ROADMAP item 3 (a)
)

// Options configures the server's logging. The zero value logs to
// slog.Default() with slow-query logging off.
type Options struct {
	// Logger receives access logs (Debug), 5xx logs (Error) and slow-query
	// logs (Warn), all keyed by trace_id. Nil means slog.Default().
	Logger *slog.Logger
	// SlowQuery, when positive, logs any query/topk/batch slower than the
	// threshold at Warn with the planner's per-query trace.
	SlowQuery time.Duration
}

// NewWith constructs the handler set over one live index. snapshotPath may be
// empty to disable /save.
func NewWith(idx *lshensemble.LiveIndex, hasher *lshensemble.Hasher, seed uint64, snapshotPath string, opts Options) *Server {
	s := &Server{idx: idx, hasher: hasher, seed: seed, snapshotPath: snapshotPath, mux: http.NewServeMux()}
	s.closing, s.endRecords = context.WithCancel(context.Background())
	s.logger = opts.Logger
	if s.logger == nil {
		s.logger = slog.Default()
	}
	s.slowQuery = opts.SlowQuery
	s.reg = obs.NewRegistry()
	s.httpm = obs.NewHTTPMetrics(s.reg, "lshensembled", s.logger)
	s.registerIndexMetrics()
	for _, o := range [...]wire.Op{wire.OpAdd, wire.OpDelete, wire.OpQuery, wire.OpTopK, wire.OpBatch} { // the series' order
		s.endpoints[o] = s.httpm.Endpoint(o.Endpoint())
		s.mux.Handle("POST "+o.Path(), s.endpoints[o].Wrap(wire.Handler(o, s.family, s.answer)))
	}
	s.mux.HandleFunc("GET "+wire.RecordPath, s.handleRecords)
	s.handle("GET /stats", "stats", s.handleStats)
	s.handle("POST /compact", "compact", s.handleCompact)
	s.handle("POST /save", "save", s.handleSave)
	// Liveness must stay cheap: a static body, no snapshot walk, no JSON
	// encoder — health checkers poll this at high frequency.
	s.mux.HandleFunc("GET /healthz", handleHealthz)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	return s
}

var healthBody = []byte("{\"status\":\"ok\"}\n")

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(healthBody)
}

// handle mounts h at pattern, wrapped in the HTTP metrics middleware.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.httpm.Wrap(endpoint, h))
}

// registerIndexMetrics exports the live index: query latency histograms fed
// by the query handlers' one measurement of each index call, and shape/planner
// counters mirrored from Stats() at scrape time (the atomics behind Stats are
// the source of truth; scraping just snapshots them, so the query path pays
// nothing extra).
func (s *Server) registerIndexMetrics() {
	for o := wire.Op(0); o < numOps; o++ {
		s.queryLat[o] = s.reg.Histogram("lshensembled_live_query_seconds",
			"Live index query latency by entry point (batch = whole batch).",
			nil, obs.L("op", o.String()))
		s.sketched[o] = s.reg.Counter("lshensembled_sketched_requests_total",
			"Query requests that arrived pre-sketched as query records, by entry point.",
			obs.L("op", o.String()))
	}

	domains := s.reg.Gauge("lshensembled_live_domains", "Live domains indexed (tombstoned entries excluded).")
	segments := s.reg.Gauge("lshensembled_live_segments", "Sealed segments in the current snapshot.")
	buffered := s.reg.Gauge("lshensembled_live_buffered_entries", "Entries in the unsealed in-memory buffer.")
	tombstones := s.reg.Gauge("lshensembled_live_tombstones", "Pending tombstones not yet compacted away.")
	resident := s.reg.Gauge("lshensembled_live_segment_resident_bytes", "Estimated heap-resident bytes across sealed segments.")
	fileBytes := s.reg.Gauge("lshensembled_live_segment_file_bytes", "On-disk bytes across spilled segment files.")
	seals := s.reg.Counter("lshensembled_live_seals_total", "Buffer seals completed by the compactor.")
	merges := s.reg.Counter("lshensembled_live_merges_total", "Segment merges completed by the compactor.")
	spillErrs := s.reg.Counter("lshensembled_live_spill_errors_total", "Segment spills that failed (segments kept serving from heap).")
	segProbed := s.reg.Counter("lshensembled_planner_segments_total", "Per-(query, segment) planner decisions.", obs.L("decision", "probed"))
	segRange := s.reg.Counter("lshensembled_planner_segments_total", "Per-(query, segment) planner decisions.", obs.L("decision", "range_pruned"))
	segBloom := s.reg.Counter("lshensembled_planner_segments_total", "Per-(query, segment) planner decisions.", obs.L("decision", "bloom_pruned"))
	treesProbed := s.reg.Counter("lshensembled_planner_trees_total", "Trees of probed segments, by whether the partition-sliced leading-value filter named any partition for the tree.", obs.L("decision", "probed"))
	treesSkipped := s.reg.Counter("lshensembled_planner_trees_total", "Trees of probed segments, by whether the partition-sliced leading-value filter named any partition for the tree.", obs.L("decision", "skipped"))
	colsProbed := s.reg.Counter("lshensembled_planner_columns_total", "Planned (partition, tree) columns of probed segments, by what the leading-value filters decided.", obs.L("decision", "probed"))
	colsSkipped := s.reg.Counter("lshensembled_planner_columns_total", "Planned (partition, tree) columns of probed segments, by what the leading-value filters decided.", obs.L("decision", "skipped"))
	resHits := s.reg.Counter("lshensembled_planner_result_cache_total", "Result-cache lookups by outcome.", obs.L("outcome", "hit"))
	resMisses := s.reg.Counter("lshensembled_planner_result_cache_total", "Result-cache lookups by outcome.", obs.L("outcome", "miss"))
	topkExits := s.reg.Counter("lshensembled_planner_topk_early_exits_total", "Top-k queries that stopped before visiting every segment.")
	bufScans := s.reg.Counter("lshensembled_planner_buffer_total", "Unsealed-buffer decisions.", obs.L("decision", "scanned"))
	bufBloom := s.reg.Counter("lshensembled_planner_buffer_total", "Unsealed-buffer decisions.", obs.L("decision", "bloom_pruned"))
	s.reg.OnScrape(func() {
		st := s.idx.Stats()
		domains.Set(int64(st.Domains))
		segments.Set(int64(len(st.Segments)))
		buffered.Set(int64(st.Buffered))
		tombstones.Set(int64(st.Tombstones))
		var res, fb int64
		for _, sd := range st.SegmentDetail {
			res += sd.ResidentBytes
			fb += sd.FileBytes
		}
		resident.Set(res)
		fileBytes.Set(fb)
		seals.Store(st.Seals)
		merges.Store(st.Merges)
		spillErrs.Store(st.SpillErrors)
		segProbed.Store(st.Planner.SegmentsProbed)
		segRange.Store(st.Planner.SegmentsRangePruned)
		segBloom.Store(st.Planner.SegmentsBloomPruned)
		treesProbed.Store(st.Planner.TreesProbed)
		treesSkipped.Store(st.Planner.TreesSkipped)
		colsProbed.Store(st.Planner.ColumnsProbed)
		colsSkipped.Store(st.Planner.ColumnsSkipped)
		resHits.Store(st.Planner.ResultHits)
		resMisses.Store(st.Planner.ResultMisses)
		topkExits.Store(st.Planner.TopKEarlyExits)
		bufScans.Store(st.Planner.BufferScans)
		bufBloom.Store(st.Planner.BufferBloomPruned)
	})
}

// Registry returns the server's metric registry. The daemon mirrors it onto
// the debug listener.
func (s *Server) Registry() *obs.Registry { return s.reg }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Index returns the live index the server fronts.
func (s *Server) Index() *lshensemble.LiveIndex { return s.idx }

// Hasher returns the server's hash family.
func (s *Server) Hasher() *lshensemble.Hasher { return s.hasher }

// Seed returns the hash-family seed embedded in snapshots.
func (s *Server) Seed() uint64 { return s.seed }

// StatsResponse is the live index shape plus the immutable serving
// parameters a client needs to interoperate (signature length, seed).
type StatsResponse struct {
	lshensemble.LiveStats
	NumHash int    `json:"num_hash"`
	RMax    int    `json:"r_max"`
	Seed    uint64 `json:"seed"`
	// Records reports that GET /records upgrades to record connections. A
	// shard from before they existed reports false by omission, and a router
	// holds it out of its ring.
	Records bool `json:"records"`
}

// SaveResponse reports a persisted snapshot.
type SaveResponse struct {
	Path  string `json:"path"`
	Bytes int    `json:"bytes"`
}

// queryResponse is one threshold answer: its keys sorted, and an empty list,
// not null, when nothing matched.
func queryResponse(keys []string) wire.QueryResponse {
	if keys == nil {
		keys = []string{}
	}
	sort.Strings(keys)
	return wire.QueryResponse{Matches: keys, Count: len(keys)}
}

// family is the front end's hash family at a shard: its own.
func (s *Server) family(wire.Op, int) (*lshensemble.Hasher, error) { return s.hasher, nil }

// answer is the index's sink, whichever transport brought the request: a
// *wire.QueryResponse, *wire.TopKResponse, *wire.BatchResponse,
// *wire.AddResponse or *wire.DeleteResponse; or a refusal; or neither, when
// ctx ended the index call.
func (s *Server) answer(ctx context.Context, req *wire.Request) (any, error) {
	switch req.Op {
	case wire.OpAdd:
		rec := lshensemble.DomainRecord{Key: req.Key, Size: req.Rows[0].Size, Sig: req.Rows[0].Sig}
		replaced, err := s.idx.Add(rec)
		if err != nil {
			return nil, err
		}
		return &wire.AddResponse{Replaced: replaced, Size: rec.Size}, nil
	case wire.OpDelete:
		return &wire.DeleteResponse{Deleted: s.idx.Delete(req.Key)}, nil
	}
	q := req.Rows[0]
	var (
		matches []string
		ranked  []lshensemble.TopKResult
		rows    [][]string
	)
	if !s.timed(ctx, req.Op, func(ctx context.Context) (err error) {
		switch req.Op {
		case wire.OpQuery:
			matches, err = s.idx.QueryAppendContext(ctx, nil, q.Sig, q.Size, q.Threshold)
		case wire.OpTopK:
			ranked, err = s.idx.QueryTopKContext(ctx, q.Sig, q.Size, req.K)
		default:
			rows, err = s.idx.QueryBatchContext(ctx, req.Rows, batchWorkers(req.Workers))
		}
		return err
	}) {
		return nil, nil
	}
	switch req.Op {
	case wire.OpQuery:
		resp := queryResponse(matches)
		return &resp, nil
	case wire.OpTopK:
		resp := wire.TopKResponse{Matches: make([]wire.TopKMatch, len(ranked)), Count: len(ranked)}
		for i, m := range ranked {
			resp.Matches[i] = wire.TopKMatch{Key: m.Key, EstContainment: m.EstContainment}
		}
		return &resp, nil
	}
	resp := wire.BatchResponse{Rows: make([]wire.QueryResponse, len(rows))}
	for i, row := range rows {
		resp.Rows[i] = queryResponse(row)
	}
	return &resp, nil
}

// batchWorkers brings a batch's workers, which come from outside like its
// rows do, down to this process's GOMAXPROCS: more goroutines than that only
// cost, and the field would otherwise start as many as the batch has rows.
// The router forwards what its client asked, so each shard caps it at its
// own.
func batchWorkers(workers int) int { return min(workers, runtime.GOMAXPROCS(0)) }

// timed takes a query's one measurement: call, the index call, runs under
// ctx — with a fresh planner trace in it when the slow-query log is on — and
// its duration is observed in the op's histogram and, when slow, logged. It
// reports false when ctx ended the call.
func (s *Server) timed(ctx context.Context, o wire.Op, call func(context.Context) error) bool {
	ctx, tr := s.traceSlow(ctx)
	start := time.Now()
	err := call(ctx)
	elapsed := time.Since(start)
	s.queryLat[o].Observe(elapsed.Seconds())
	if err != nil {
		return false
	}
	s.noteSlow(ctx, o, elapsed, tr)
	return true
}

// traceSlow arms the slow-query log for one query of any shape: with a
// threshold configured it returns ctx carrying a fresh planner trace,
// otherwise ctx alone.
func (s *Server) traceSlow(ctx context.Context) (context.Context, *lshensemble.LiveQueryTrace) {
	if s.slowQuery <= 0 {
		return ctx, nil
	}
	tr := new(lshensemble.LiveQueryTrace)
	return lshensemble.WithLiveQueryTrace(ctx, tr), tr
}

// noteSlow logs one Warn line for a query that crossed the slow-query
// threshold, keyed by trace_id: whether the result cache answered, the
// snapshot's shape and, when the trace carries one, the planner's breakdown —
// a batch's is the sum over its rows; a ranked query's ladder and an answer
// from the result cache make no planner decisions and print none.
func (s *Server) noteSlow(ctx context.Context, o wire.Op, elapsed time.Duration, tr *lshensemble.LiveQueryTrace) {
	if tr == nil || elapsed < s.slowQuery {
		return
	}
	attrs := []slog.Attr{
		slog.String("trace_id", obs.TraceID(ctx)),
		slog.String("op", o.String()),
		slog.Duration("elapsed", elapsed),
		slog.Bool("result_cache_hit", tr.ResultCacheHit),
		slog.Int("segments", tr.Segments),
		slog.Int("buffered", tr.Buffered),
	}
	if tr.SegmentsProbed+tr.SegmentsRangePruned+tr.SegmentsBloomPruned > 0 || tr.BufferScanned || tr.BufferBloomSkipped {
		attrs = append(attrs,
			slog.Int("segments_probed", tr.SegmentsProbed),
			slog.Int("segments_range_pruned", tr.SegmentsRangePruned),
			slog.Int("segments_bloom_pruned", tr.SegmentsBloomPruned),
			slog.Int("trees_probed", tr.TreesProbed),
			slog.Int("trees_skipped", tr.TreesSkipped),
			slog.Int("columns_probed", tr.ColumnsProbed),
			slog.Int("columns_skipped", tr.ColumnsSkipped),
			slog.Bool("buffer_scanned", tr.BufferScanned),
			slog.Bool("buffer_bloom_skipped", tr.BufferBloomSkipped),
		)
	}
	s.logger.LogAttrs(ctx, slog.LevelWarn, "slow query", attrs...)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	o := s.idx.Options()
	wire.WriteJSON(w, http.StatusOK, StatsResponse{
		LiveStats: s.idx.Stats(),
		NumHash:   o.NumHash,
		RMax:      o.RMax,
		Seed:      s.seed,
		Records:   true,
	})
}

func (s *Server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	s.idx.Compact()
	s.handleStats(w, nil)
}

func (s *Server) handleSave(w http.ResponseWriter, _ *http.Request) {
	if s.snapshotPath == "" {
		wire.WriteRefusal(w, &wire.Refusal{Status: http.StatusNotFound, Err: errors.New("no -snapshot path configured")})
		return
	}
	n, err := s.SaveSnapshot()
	if err != nil {
		wire.WriteRefusal(w, &wire.Refusal{Status: http.StatusInternalServerError, Err: err})
		return
	}
	wire.WriteJSON(w, http.StatusOK, SaveResponse{Path: s.snapshotPath, Bytes: n})
}

// --- snapshot files ---
//
// A daemon snapshot prefixes the live-index encoding with the hash-family
// seed: signatures from a different family are incomparable garbage, so the
// seed must round-trip with the data and is verified on load.

var snapshotMagic = [4]byte{'L', 'S', 'H', 'D'}

// SaveSnapshot writes the index to the configured path with WriteSnapshot,
// then deletes the segment files retired since the previous save.
func (s *Server) SaveSnapshot() (int, error) {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	n, err := WriteSnapshot(s.snapshotPath, s.seed, s.idx)
	if err != nil {
		return 0, err
	}
	// The freshly renamed manifest no longer references retired segment
	// files, so they are safe to delete now — and only now.
	s.idx.CollectGarbage()
	return n, nil
}

// WriteSnapshot writes idx, sketched under seed, as a daemon snapshot file
// (magic, seed, live encoding) via a same-directory fsynced temp file +
// atomic rename, so a crash leaves the previous file or the new one, never a
// torn one. It returns the bytes written; LoadSnapshot reads the file back.
func WriteSnapshot(path string, seed uint64, idx *lshensemble.LiveIndex) (int, error) {
	buf := append([]byte(nil), snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, seed)
	buf = idx.AppendBinary(buf)
	if err := segfile.WriteAtomic(path, buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// LoadSnapshot reads a daemon snapshot, verifying the hash-family seed.
// Shard handoff rides on this: a new shard boots from any shard's snapshot
// (or manifest + segment files) written with the same seed.
func LoadSnapshot(path string, seed uint64, opts lshensemble.LiveOptions) (*lshensemble.LiveIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var header [12]byte
	if _, err := io.ReadFull(f, header[:]); err != nil {
		return nil, fmt.Errorf("reading snapshot header: %w", err)
	}
	if [4]byte(header[:4]) != snapshotMagic {
		return nil, fmt.Errorf("%s is not a lshensembled snapshot", path)
	}
	if saved := binary.LittleEndian.Uint64(header[4:]); saved != seed {
		return nil, fmt.Errorf("snapshot hash seed %d != configured -seed %d (signatures would be incomparable)", saved, seed)
	}
	return lshensemble.LoadLive(f, opts)
}
