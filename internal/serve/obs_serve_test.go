package serve

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lshensemble"
	"lshensemble/internal/wire"
)

func testServerWith(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	const seed = 1
	idx, err := lshensemble.BuildLive(nil, lshensemble.LiveOptions{
		Options:       lshensemble.Options{NumHash: 256, RMax: 8, NumPartitions: 4},
		SealThreshold: 8,
		MaxSegments:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	s := NewWith(idx, lshensemble.NewHasher(256, seed), seed, "", opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsEndpoint drives traffic through every query entry point and
// checks the scrape exposes the HTTP middleware families, the live-query
// latency histograms and the index shape/planner families with moving
// values.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, "")
	base := ts.URL
	seedCorpus(t, base)
	var qr wire.QueryResponse
	post(t, base+"/query", wire.QueryRequest{Values: []string{"Ontario", "Quebec"}, Threshold: 0.9}, http.StatusOK, &qr)
	var tr wire.TopKResponse
	post(t, base+"/query/topk", wire.TopKRequest{Values: []string{"Ontario", "Quebec"}, K: 2}, http.StatusOK, &tr)
	var br wire.BatchResponse
	post(t, base+"/query/batch", wire.BatchRequest{Queries: []wire.QueryRequest{
		{Values: []string{"Ontario"}}, {Values: []string{"Toronto", "Montreal"}},
	}}, http.StatusOK, &br)
	post(t, base+"/query", wire.QueryRequest{}, http.StatusBadRequest, nil)

	text := scrape(t, base)
	for _, want := range []string{
		`lshensembled_http_requests_total{code="2xx",endpoint="query"} `,
		`lshensembled_http_requests_total{code="4xx",endpoint="query"} 1`,
		`lshensembled_http_request_seconds_bucket{endpoint="query",le="+Inf"} `,
		`lshensembled_http_in_flight `,
		`lshensembled_live_query_seconds_count{op="query"} 1`,
		`lshensembled_live_query_seconds_count{op="topk"} 1`,
		`lshensembled_live_query_seconds_count{op="batch"} 1`,
		`lshensembled_live_domains 3`,
		`lshensembled_planner_segments_total{decision="probed"} `,
		`lshensembled_planner_trees_total{decision="probed"} `,
		`lshensembled_planner_trees_total{decision="skipped"} `,
		`lshensembled_planner_columns_total{decision="probed"} `,
		`lshensembled_planner_columns_total{decision="skipped"} `,
		`lshensembled_planner_result_cache_total{outcome="miss"} `,
		"# TYPE lshensembled_live_query_seconds histogram",
		"# TYPE lshensembled_live_seals_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Counters move: a second scrape after more traffic shows more requests.
	post(t, base+"/query", wire.QueryRequest{Values: []string{"Ontario"}}, http.StatusOK, &qr)
	post(t, base+"/query", wire.QueryRequest{Values: []string{"Ontario"}}, http.StatusOK, &qr)
	text2 := scrape(t, base)
	if !strings.Contains(text2, `lshensembled_live_query_seconds_count{op="query"} 3`) {
		t.Error("query latency count did not advance across scrapes")
	}
}

// TestHealthzStatic pins the liveness contract: a constant JSON body with
// no snapshot walk behind it.
func TestHealthzStatic(t *testing.T) {
	_, ts := testServer(t, "")
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(b) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("GET /healthz: status %d body %q", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("healthz content type %q", ct)
	}
}

// TestSlowQueryLog checks the threshold gate: with a 1ns threshold every
// query is "slow" and the Warn line carries the trace id and the planner
// breakdown.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	_, ts := testServerWith(t, Options{Logger: logger, SlowQuery: time.Nanosecond})
	seedCorpus(t, ts.URL)

	req, err := http.NewRequest("POST", ts.URL+"/query",
		strings.NewReader(`{"values":["Ontario","Quebec"],"threshold":0.9}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "slowtest-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "slowtest-123" {
		t.Errorf("response trace id %q, want the inbound one echoed", got)
	}
	out := buf.String()
	for _, want := range []string{"slow query", "trace_id=slowtest-123", "op=query", "segments_probed=", "trees_probed=", "trees_skipped=", "columns_probed=", "columns_skipped="} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query log missing %q in:\n%s", want, out)
		}
	}

	// Under the threshold nothing logs: raise it out of reach and re-query.
	buf.Reset()
	_, ts2 := testServerWith(t, Options{Logger: logger, SlowQuery: time.Hour})
	seedCorpus(t, ts2.URL)
	var qr wire.QueryResponse
	post(t, ts2.URL+"/query", wire.QueryRequest{Values: []string{"Ontario"}}, http.StatusOK, &qr)
	if s := buf.String(); strings.Contains(s, "slow query") {
		t.Errorf("sub-threshold query logged as slow:\n%s", s)
	}
}

// TestSlowBatchLogsPlannerBreakdown: a slow /query/batch logs what the planner
// did for its rows added up — the same segments and columns the rows log
// when asked one by one (result cache off, so neither form answers from it).
func TestSlowBatchLogsPlannerBreakdown(t *testing.T) {
	var buf bytes.Buffer
	idx, err := lshensemble.BuildLive(nil, lshensemble.LiveOptions{
		Options:       lshensemble.Options{NumHash: fixtureNumHash, RMax: 8, NumPartitions: 4},
		SealThreshold: 8, MaxSegments: 2, ResultCacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	ts := httptest.NewServer(NewWith(idx, lshensemble.NewHasher(fixtureNumHash, fixtureSeed), fixtureSeed, "", Options{
		Logger:    slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn})),
		SlowQuery: time.Nanosecond,
	}))
	t.Cleanup(ts.Close)
	seedWindows(t, ts.URL)

	var batch wire.BatchRequest
	for i := 0; i < 6; i++ {
		q := wire.QueryRequest{Values: windowValues(i*30, 20+10*i), Threshold: []float64{0.3, 0.9}[i%2]}
		batch.Queries = append(batch.Queries, q)
		post(t, ts.URL+"/query", q, http.StatusOK, nil)
	}
	post(t, ts.URL+"/query/batch", batch, http.StatusOK, nil)

	// The sum of a field over the slow-query lines of one op, and their count.
	sum := func(op, field string) (total, lines int) {
		for _, line := range strings.Split(buf.String(), "\n") {
			if _, rest, ok := strings.Cut(line, " "+field+"="); ok && strings.Contains(line, "op="+op+" ") {
				n, err := strconv.Atoi(strings.Fields(rest)[0])
				if err != nil {
					t.Fatalf("%s in %q: %v", field, line, err)
				}
				total, lines = total+n, lines+1
			}
		}
		return total, lines
	}
	for _, field := range []string{"segments_probed", "columns_probed"} {
		singles, n := sum("query", field)
		got, lines := sum("batch", field)
		if n != 6 || lines != 1 || singles == 0 || got != singles {
			t.Errorf("%s: the batch's line (%d found) says %d, the %d single lines sum to %d\n%s", field, lines, got, n, singles, buf.String())
		}
	}
}

// seriesSet strips the sample values from a Prometheus text page: what is left
// — every HELP and TYPE line, every series' name and label set — is what a
// dashboard or alert rule is written against.
func seriesSet(page string) string {
	lines := strings.Split(strings.TrimSpace(page), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "#") {
			lines[i] = line[:strings.LastIndexByte(line, ' ')]
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// eachShape is one request of each query shape over seedCorpus, with the op
// its metrics and slow-query line are filed under.
var eachShape = []struct {
	path string
	body any
	op   wire.Op
}{
	{"/query", wire.QueryRequest{Values: []string{"Ontario", "Quebec"}}, wire.OpQuery},
	{"/query/topk", wire.TopKRequest{Values: []string{"Ontario", "Quebec"}, K: 2}, wire.OpTopK},
	{"/query/batch", wire.BatchRequest{Queries: []wire.QueryRequest{{Values: []string{"Ontario"}}, {Values: []string{"Toronto"}}}}, wire.OpBatch},
}

// TestMetricsSeriesSet pins the daemon's /metrics page — names, labels, HELP
// and TYPE, in order — to the set recorded before the observer hook, the
// injectable registry and the prefix option were deleted.
func TestMetricsSeriesSet(t *testing.T) {
	_, ts := testServer(t, "")
	seedCorpus(t, ts.URL)
	for _, step := range eachShape {
		post(t, ts.URL+step.path, step.body, http.StatusOK, nil)
	}
	want, err := os.ReadFile("testdata/metrics_series.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := seriesSet(scrape(t, ts.URL)); got != string(want) {
		t.Errorf("the /metrics series set moved; got:\n%s", got)
	}
}

// TestQueryLatencyCountsEveryIndexCall: the per-shape latency histogram moves
// by exactly one per request that reached the index — an answer from the
// result cache included — and not at all for a request refused before it.
func TestQueryLatencyCountsEveryIndexCall(t *testing.T) {
	s, ts := testServer(t, "")
	seedCorpus(t, ts.URL)
	counts := func() (c [numOps]uint64) {
		for o := range c {
			c[o] = s.queryLat[o].Count()
		}
		return c
	}
	hits := func() uint64 { return s.idx.Stats().Planner.ResultHits }
	for _, step := range eachShape {
		for rep, wantHit := range []bool{false, true} {
			before, hitsBefore := counts(), hits()
			post(t, ts.URL+step.path, step.body, http.StatusOK, nil)
			want := before
			want[step.op]++
			if got := counts(); got != want {
				t.Errorf("%s (repeat %d): latency counts %v → %v, want %v", step.path, rep, before, got, want)
			}
			if hit := hits() > hitsBefore; hit != wantHit {
				t.Errorf("%s (repeat %d): answered from the result cache = %v, want %v", step.path, rep, hit, wantHit)
			}
		}
	}
	before := counts()
	post(t, ts.URL+"/query", wire.QueryRequest{Values: []string{"Ontario"}, Threshold: 2}, http.StatusBadRequest, nil)
	post(t, ts.URL+"/query/topk", wire.TopKRequest{Values: []string{"Ontario"}, K: -1}, http.StatusBadRequest, nil)
	post(t, ts.URL+"/query/batch", wire.BatchRequest{}, http.StatusBadRequest, nil)
	if got := counts(); got != before {
		t.Errorf("refused requests moved the latency counts %v → %v", before, got)
	}
}

// slowLines is a slog.Handler that keeps the attributes of the latest
// "slow query" record and drops everything else.
type slowLines struct {
	mu   sync.Mutex
	last map[string]slog.Value
}

func (h *slowLines) Enabled(context.Context, slog.Level) bool { return true }
func (h *slowLines) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *slowLines) WithGroup(string) slog.Handler            { return h }

func (h *slowLines) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "slow query" {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.last = map[string]slog.Value{}
	r.Attrs(func(a slog.Attr) bool {
		h.last[a.Key] = a.Value
		return true
	})
	return nil
}

// TestSlowLineAndHistogramShareOneMeasurement: the elapsed a slow-query line
// prints is the very duration the shape's histogram observed — equal to the
// nanosecond, which two readings of the clock would not be.
func TestSlowLineAndHistogramShareOneMeasurement(t *testing.T) {
	h := &slowLines{}
	s, ts := testServerWith(t, Options{Logger: slog.New(h), SlowQuery: time.Nanosecond})
	seedCorpus(t, ts.URL)
	for _, step := range eachShape {
		post(t, ts.URL+step.path, step.body, http.StatusOK, nil)
		h.mu.Lock()
		line := h.last
		h.mu.Unlock()
		if line["op"].String() != step.op.String() {
			t.Fatalf("%s: no slow-query line for op %s: %v", step.path, step.op, line)
		}
		// One request per shape, so the histogram's sum is its one observation.
		elapsed := line["elapsed"].Duration()
		if got := s.queryLat[step.op].Sum(); elapsed <= 0 || got != elapsed.Seconds() {
			t.Errorf("%s: the slow line says %v (%v s), the histogram observed %v s", step.path, elapsed, elapsed.Seconds(), got)
		}
	}
}
