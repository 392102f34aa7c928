// Package serve is the HTTP face of one live LSH Ensemble index — the
// handler set behind both cmd/lshensembled (a single shard) and the shards
// that cmd/lshrouter scatters to. Extracting it from the daemon binary keeps
// exactly one implementation of the wire protocol: the router forwards and
// merges the same types a shard serves, and the router's multi-shard tests
// spin up real shard handlers in-process via httptest.
//
// Queries hit the live index's lock-free snapshot path and therefore never
// contend with ingest; mutation endpoints go straight to Add/Delete, which
// never block queries either. A request arrives in one of two forms. Over
// HTTP it is JSON carrying the domain's raw string values, and the shard
// sketches them with its own hash family. On a record connection (GET
// /records upgrades one; records.go has the layout) it is a record carrying
// the finished MinHash signature instead, so whoever holds the family — the
// router, which reads seed and num_hash off /stats — sketches a query or an
// add once, however many shards it is sent to. Both forms resolve through the
// same code into the same (signature, size, threshold) and so the same
// answer, and an add record is stored exactly as the JSON /add of the same
// values would be.
//
// JSON bodies are read in one pass (readRequest), each value hashed as it is
// read, so neither the router nor a shard builds a query's strings. The
// reader takes the subset of JSON that encoders write — encoding/json, and
// those that escape every non-ASCII rune as \u, Python's json.dumps by
// default, alike:
//
//   - keys spelled exactly as the wire types' tags, each at most once;
//   - any string encoding/json accepts. One with no escape and in valid UTF-8
//     is hashed where it lies in the body; any other is first decoded as
//     encoding/json decodes it (escapes undone, invalid UTF-8 made U+FFFD)
//     into a buffer the reader reuses;
//   - numbers in JSON's grammar that strconv parses into the field's Go type
//     (integer literals only for size, k and workers);
//   - nothing but whitespace after the value.
//
// Anything else — a key in another case, null, a repeated key, a malformed
// body — falls back to encoding/json, whose strings are then hashed. So a
// body is accepted or refused exactly as encoding/json accepts or refuses it,
// in its words, and reads to the same rows; a body that cannot be read whole
// (one past MaxRequestBody, or a client gone) is refused as "decoding
// request: …", at a shard and at the router alike. The admin endpoints take
// no body.
//
// One front end (Handler) serves the JSON form of every shape for both
// binaries and hands the resolved Request to a sink: the index here, the
// ring at the router (internal/cluster), which sends it on as a record. So a
// body a shard would refuse is refused at the router in the same words.
//
// A JSON request gets a JSON answer. A query record gets the answer frame:
// the sorted keys behind length prefixes (under "wire types"), which the
// router merges without running a JSON scanner over them; a write record
// gets one flag byte. A refusal is the JSON error envelope on either
// transport. A record goes through the same check, sketch (a no-op: it is
// sketched) and index sink as the JSON form, so it is refused in the same
// words, moves the same series and writes the same access-log and
// slow-query lines (keyed by the record's trace ID) as the JSON request over
// HTTP, and gets the same rows and scores.
//
// Every query threads its context into the index (QueryAppendContext /
// QueryTopKContext / QueryBatchContext), so a client that disconnects — or a
// router whose scatter deadline expires — stops the in-flight work instead of
// burning CPU on an answer nobody will read. Over HTTP the request context
// ends when the client hangs up. A record runs under the deadline it
// carries; the shard reads nothing while it runs, so a router that hangs up
// mid-query is noticed when the answer is written or that deadline passes,
// whichever comes first, and the connection then closes.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"lshensemble"
	"lshensemble/internal/core"
	"lshensemble/internal/minhash"
	"lshensemble/internal/obs"
	"lshensemble/internal/segfile"
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

// Op is one of the shapes of body a shard serves: the three query shapes and
// the two writes, the shape readRequest reads a body as and the op of a record.
// Its String is the shape's name wherever one is printed: the op label of the
// per-shape metrics and the op field of the slow-query line.
type Op uint8

const (
	OpQuery  Op = iota // /query
	OpTopK             // /query/topk
	OpBatch            // /query/batch: one observation per batch, not per row
	OpAdd              // /add
	OpDelete           // /delete
	numRecordOps
	numOps = OpAdd // the query shapes come first
)

// opNames are each shape's name, its label in the HTTP series and its route.
var opNames = [numRecordOps][3]string{
	{"query", "query", "/query"}, {"topk", "query_topk", "/query/topk"}, {"batch", "query_batch", "/query/batch"},
	{"add", "add", "/add"}, {"delete", "delete", "/delete"},
}

func (o Op) String() string { return opNames[o][0] }

// Endpoint is the shape's label in the HTTP series.
func (o Op) Endpoint() string { return opNames[o][1] }

// Path is the shape's route.
func (o Op) Path() string { return opNames[o][2] }

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
	for _, o := range [...]Op{OpAdd, OpDelete, OpQuery, OpTopK, OpBatch} { // the series' order
		s.endpoints[o] = s.httpm.Endpoint(o.Endpoint())
		s.mux.Handle("POST "+o.Path(), s.endpoints[o].Wrap(Handler(o, s.family, s.answer)))
	}
	s.mux.HandleFunc("GET "+RecordPath, s.handleRecords)
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
	for o := Op(0); o < numOps; o++ {
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

// --- wire types ---
//
// These are the shard protocol: the router speaks exactly these types when
// forwarding writes and scattering queries, and extends the responses with
// partial-result fields of its own (internal/cluster).
//
// Each endpoint takes one JSON request type over HTTP; its pre-sketched form
// is a record (records.go). A 2xx answer to a record carries the answer
// frame, and errors stay the JSON envelope:
//
//	uint32 LE   rows: 1 for /query and /query/topk, one per batch query
//	per row     uint32 LE keys, then per key: uint32 LE length, the key's
//	            bytes and, on /query/topk only, its est_containment as the
//	            uint64 LE bits of a float64
//
// A threshold row's keys ascend strictly. A top-k row is in strict rank
// order: score descending, then key ascending. DecodeAnswer refuses a frame
// that breaks any of this.

// AddRequest ingests one domain; a shard sketches its values with its own
// family.
type AddRequest struct {
	Key    string   `json:"key"`
	Values []string `json:"values"`
}

// AddResponse reports an ingest: whether an existing entry was replaced and
// the distinct-value count that was sketched.
type AddResponse struct {
	Replaced bool `json:"replaced"`
	Size     int  `json:"size"`
}

// DeleteRequest removes one domain by key.
type DeleteRequest struct {
	Key string `json:"key"`
}

// DeleteResponse reports whether the key was indexed.
type DeleteResponse struct {
	Deleted bool `json:"deleted"`
}

// QueryRequest is one containment query over raw string values.
type QueryRequest struct {
	Values []string `json:"values,omitempty"`
	// Threshold is the containment threshold t*; 0 means the 0.5 default.
	Threshold float64 `json:"threshold"`
	// Size optionally overrides |Q|; 0 means the distinct value count and a
	// negative size is refused.
	Size int `json:"size"`
}

// QueryResponse lists the matching keys, sorted.
type QueryResponse struct {
	Matches []string `json:"matches"`
	Count   int      `json:"count"`
}

// TopKRequest is one ranked containment query.
type TopKRequest struct {
	Values []string `json:"values,omitempty"`
	// K is the number of ranked results to return; 0 means 10.
	K int `json:"k"`
	// Size optionally overrides |Q|; 0 means the distinct value count and a
	// negative size is refused.
	Size int `json:"size"`
}

// TopKMatch is one ranked answer.
type TopKMatch struct {
	Key string `json:"key"`
	// EstContainment is the signature-estimated containment used for the
	// ranking; exact scores require the raw domains.
	EstContainment float64 `json:"est_containment"`
}

// TopKResponse lists ranked matches, best first.
type TopKResponse struct {
	Matches []TopKMatch `json:"matches"`
	Count   int         `json:"count"`
}

// BatchRequest carries many queries answered in one round trip.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
	// Workers bounds the fan-out of the batch dispatch: 0 (or less) means
	// GOMAXPROCS, and the shard caps anything above its own.
	Workers int `json:"workers"`
}

// BatchResponse answers a BatchRequest row-by-row, in query order.
type BatchResponse struct {
	Rows []QueryResponse `json:"rows"`
}

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

// appendAnswer appends the answer frame of resp, a *QueryResponse,
// *TopKResponse or *BatchResponse, or the answer of a write record, to dst.
func appendAnswer(dst []byte, resp any) []byte {
	le := binary.LittleEndian
	switch a := resp.(type) {
	case *QueryResponse:
		return appendKeys(le.AppendUint32(dst, 1), a.Matches)
	case *TopKResponse:
		dst = le.AppendUint32(le.AppendUint32(dst, 1), uint32(len(a.Matches)))
		for _, m := range a.Matches {
			dst = le.AppendUint64(appendKey(dst, m.Key), math.Float64bits(m.EstContainment))
		}
		return dst
	case *BatchResponse:
		dst = le.AppendUint32(dst, uint32(len(a.Rows)))
		for _, row := range a.Rows {
			dst = appendKeys(dst, row.Matches)
		}
		return dst
	case *AddResponse:
		return append(dst, b2u(a.Replaced))
	case *DeleteResponse:
		return append(dst, b2u(a.Deleted))
	}
	panic(fmt.Sprintf("serve: no answer frame for %T", resp))
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendKeys(dst []byte, keys []string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = appendKey(dst, k)
	}
	return dst
}

func appendKey(dst []byte, key string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(key))), key...)
}

// DecodeAnswer parses the answer frame to a request of rows rows (1 for
// /query and /query/topk) into resp: a *QueryResponse, *TopKResponse or
// *BatchResponse. It trusts nothing in body. Every count is held against the
// bytes left before anything is allocated for it, and the keys are substrings
// of one string copy of body. A frame is an error, never a shorter or
// reordered answer, when its row count is not rows, when a row is out of
// order or repeats a key, when a score is not a finite number, or when bytes
// are left over.
func DecodeAnswer(body []byte, rows int, resp any) error {
	d := answerReader{Reader: segfile.Reader{B: body}, s: string(body)}
	n := d.Count(4)
	if _, batch := resp.(*BatchResponse); !d.Short && (n != rows || !batch && n != 1) {
		return fmt.Errorf("answer frame of %d rows to a request of %d", n, rows)
	}
	var err error
	switch a := resp.(type) {
	case *QueryResponse:
		*a, err = d.row()
	case *TopKResponse:
		*a, err = d.rankedRow()
	case *BatchResponse:
		a.Rows = make([]QueryResponse, n)
		for i := 0; i < n && err == nil; i++ {
			a.Rows[i], err = d.row()
		}
	default:
		return fmt.Errorf("no answer frame for %T", resp)
	}
	switch {
	case d.Short:
		return errors.New("answer frame truncated")
	case err == nil && len(d.B) != 0:
		return fmt.Errorf("%d bytes after the answer frame", len(d.B))
	}
	return err
}

// answerReader walks an answer frame; keys are substrings of s, the one
// string copy of the frame. row and rankedRow advance a copy of the Reader
// on their own stack and store it back once: advancing it through d would
// cost a write barrier per read while the collector runs.
type answerReader struct {
	segfile.Reader
	s string
}

// row reads one threshold row, whose keys must ascend strictly.
func (d *answerReader) row() (QueryResponse, error) {
	r := d.Reader
	keys := make([]string, r.Count(4))
	for i := range keys {
		n := len(r.Bytes(int(r.U32())))
		end := len(d.s) - len(r.B)
		keys[i] = d.s[end-n : end]
		if i > 0 && keys[i] <= keys[i-1] && !r.Short {
			return QueryResponse{}, fmt.Errorf("answer row out of order at key %d", i)
		}
	}
	d.Reader = r
	return QueryResponse{Matches: keys, Count: len(keys)}, nil
}

// rankedRow reads one top-k row, whose matches must be in strict rank order.
func (d *answerReader) rankedRow() (TopKResponse, error) {
	r := d.Reader
	ms := make([]TopKMatch, r.Count(4+8))
	for i := range ms {
		n := len(r.Bytes(int(r.U32())))
		end := len(d.s) - len(r.B)
		ms[i].Key = d.s[end-n : end]
		ms[i].EstContainment = math.Float64frombits(r.U64())
		if est := ms[i].EstContainment; math.IsNaN(est) || math.IsInf(est, 0) {
			return TopKResponse{}, fmt.Errorf("answer score %d is %v", i, est)
		}
		if i > 0 && !r.Short && core.CompareTopK(core.TopKResult(ms[i-1]), core.TopKResult(ms[i])) >= 0 {
			return TopKResponse{}, fmt.Errorf("answer row out of rank order at match %d", i)
		}
	}
	d.Reader = r
	return TopKResponse{Matches: ms, Count: len(ms)}, nil
}

// SaveResponse reports a persisted snapshot.
type SaveResponse struct {
	Path  string `json:"path"`
	Bytes int    `json:"bytes"`
}

// ErrorResponse is the JSON error envelope of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---

// MaxRequestBody caps request bodies: an /add or batch body larger than
// this is a client bug.
const MaxRequestBody = 64 << 20

// decodeOne decodes exactly one JSON value from rd into dst, refusing unknown
// fields and anything but whitespace after the value.
func decodeOne(rd io.Reader, dst any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes err in the JSON error envelope with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorResponse{Error: err.Error()})
}

// queryResponse is one threshold answer: its keys sorted, and an empty list,
// not null, when nothing matched.
func queryResponse(keys []string) QueryResponse {
	if keys == nil {
		keys = []string{}
	}
	sort.Strings(keys)
	return QueryResponse{Matches: keys, Count: len(keys)}
}

// readAll reads a bounded request body whole; a failed read returns the
// bytes that came before it with the error.
func readAll(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	// Sized from Content-Length so the usual body is read in one allocation;
	// the header is a hint from outside, so it never sizes the buffer past
	// 1 MiB. Without one (a chunked body) the buffer starts at a few KiB and
	// grows with what arrives.
	hint := r.ContentLength
	switch {
	case hint < 0:
		hint = 4 << 10
	case hint > 1<<20:
		hint = 1 << 20
	}
	buf := bytes.NewBuffer(make([]byte, 0, hint+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	return buf.Bytes(), err
}

// --- the JSON front end ---

// Request is a checked and sketched request of any shape, what its record
// (records.go) carries: one row for /query, /query/topk and /add, one per
// query of a batch, none for /delete; K is a ranked query's, Workers a
// batch's, Key a write's. The threshold of a row that is not a threshold
// query's is unused.
type Request struct {
	Op      Op
	Key     string
	Rows    []lshensemble.BatchQuery
	K       int
	Workers int
}

// Refusal is an answer that is not a 200: Status, with Err in the JSON error
// envelope and, when RetryAfter is positive, a Retry-After of that many
// seconds.
type Refusal struct {
	Status     int
	Err        error
	RetryAfter int
}

func (r *Refusal) Error() string { return r.Err.Error() }

// WriteRefusal answers err: a *Refusal as it says, any other error as a 400.
func WriteRefusal(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var ref *Refusal
	if errors.As(err, &ref) {
		status = ref.Status
		if ref.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ref.RetryAfter))
		}
	}
	writeError(w, status, err)
}

// Handler is the JSON front end of shape o, the daemon's and the router's
// alike. It reads and checks the body once, asks family for the hash family
// to sketch it with (family may refuse, given the shape and the row count),
// sketches it once and hands the Request to answer, the sink: the index, or
// the ring. What answer returns is the 200's JSON body and a refusal at any
// step is answered by WriteRefusal. Neither means the request context ended
// the call: nobody will read a body, so the server tears the connection down.
func Handler(o Op, family func(o Op, rows int) (*lshensemble.Hasher, error), answer func(context.Context, *Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q, err := readRequest(w, r, o)
		var h *lshensemble.Hasher
		if err == nil {
			h, err = family(o, len(q.Rows))
		}
		var resp any
		if err == nil {
			req := q.sketch(o, h)
			resp, err = answer(r.Context(), &req)
		}
		switch {
		case err != nil:
			WriteRefusal(w, err)
		case resp != nil:
			WriteJSON(w, http.StatusOK, resp)
		}
	}
}

// check refuses a body of shape o that no shard would accept, in the words
// both transports answer with: a write without its key, a batch without
// rows, a row with neither values nor a signature, a negative size, a
// signature without the size only its sender could count, a negative k or a
// threshold outside (0, 1]. A batch row's refusal names its row.
func (q *query) check(o Op) error {
	switch {
	case (o == OpAdd || o == OpDelete) && q.Key == "":
		return errors.New("key is required")
	case o == OpDelete:
		return nil
	case len(q.Rows) == 0:
		return errors.New("queries must be non-empty")
	}
	for i := range q.Rows {
		err := q.Rows[i].check(o)
		if err != nil && o == OpBatch {
			err = fmt.Errorf("query %d: %w", i, err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *queryRow) check(o Op) error {
	switch {
	case r.Sig == nil && len(r.Hashes) == 0:
		return errors.New("values must be non-empty")
	case r.Size < 0:
		return fmt.Errorf("size %d must not be negative", r.Size)
	case r.Sig != nil && r.Size == 0:
		return errors.New("size must be positive with a signature")
	case o == OpTopK && r.K < 0:
		return fmt.Errorf("k %d must be positive", r.K)
	case (o == OpQuery || o == OpBatch) && !(r.Threshold >= 0 && r.Threshold <= 1): // NaN too; 0 is the default
		return fmt.Errorf("threshold %v out of range (0, 1]", r.Threshold)
	}
	return nil
}

// sketch turns a checked body of shape o into its Request. A row's values
// are sketched with h — the dedup and sketch of lshensemble.SketchStrings,
// compacting the hashes in place — under their distinct count unless a
// positive size overrides it; a record's row keeps its signature and size.
// A threshold or k of 0 becomes its default.
func (q *query) sketch(o Op, h *lshensemble.Hasher) Request {
	req := Request{Op: o, Key: q.Key, Workers: q.Workers}
	if o == OpDelete {
		return req
	}
	req.Rows = make([]lshensemble.BatchQuery, len(q.Rows))
	for i, r := range q.Rows {
		sig, size := r.Sig, r.Size
		if sig == nil {
			var distinct int
			sig, distinct = minhash.SketchDistinct(h, r.Hashes)
			if size == 0 {
				size = distinct
			}
		}
		req.Rows[i] = lshensemble.BatchQuery{Sig: sig, Size: size, Threshold: cmp.Or(r.Threshold, 0.5)}
	}
	req.K = cmp.Or(q.Rows[0].K, 10)
	return req
}

// family is the front end's hash family at a shard: its own.
func (s *Server) family(Op, int) (*lshensemble.Hasher, error) { return s.hasher, nil }

// answer is the index's sink, whichever transport brought the request: a
// *QueryResponse, *TopKResponse, *BatchResponse, *AddResponse or
// *DeleteResponse; or a refusal; or neither, when ctx ended the index call.
func (s *Server) answer(ctx context.Context, req *Request) (any, error) {
	switch req.Op {
	case OpAdd:
		rec := lshensemble.DomainRecord{Key: req.Key, Size: req.Rows[0].Size, Sig: req.Rows[0].Sig}
		replaced, err := s.idx.Add(rec)
		if err != nil {
			return nil, err
		}
		return &AddResponse{Replaced: replaced, Size: rec.Size}, nil
	case OpDelete:
		return &DeleteResponse{Deleted: s.idx.Delete(req.Key)}, nil
	}
	q := req.Rows[0]
	var (
		matches []string
		ranked  []lshensemble.TopKResult
		rows    [][]string
	)
	if !s.timed(ctx, req.Op, func(ctx context.Context) (err error) {
		switch req.Op {
		case OpQuery:
			matches, err = s.idx.QueryAppendContext(ctx, nil, q.Sig, q.Size, q.Threshold)
		case OpTopK:
			ranked, err = s.idx.QueryTopKContext(ctx, q.Sig, q.Size, req.K)
		default:
			rows, err = s.idx.QueryBatchContext(ctx, req.Rows, batchWorkers(req.Workers))
		}
		return err
	}) {
		return nil, nil
	}
	switch req.Op {
	case OpQuery:
		resp := queryResponse(matches)
		return &resp, nil
	case OpTopK:
		resp := TopKResponse{Matches: make([]TopKMatch, len(ranked)), Count: len(ranked)}
		for i, m := range ranked {
			resp.Matches[i] = TopKMatch{Key: m.Key, EstContainment: m.EstContainment}
		}
		return &resp, nil
	}
	resp := BatchResponse{Rows: make([]QueryResponse, len(rows))}
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
func (s *Server) timed(ctx context.Context, o Op, call func(context.Context) error) bool {
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
func (s *Server) noteSlow(ctx context.Context, o Op, elapsed time.Duration, tr *lshensemble.LiveQueryTrace) {
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
	WriteJSON(w, http.StatusOK, StatsResponse{
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
		writeError(w, http.StatusNotFound, errors.New("no -snapshot path configured"))
		return
	}
	n, err := s.SaveSnapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, SaveResponse{Path: s.snapshotPath, Bytes: n})
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
