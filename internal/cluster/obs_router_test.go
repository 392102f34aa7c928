package cluster

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"lshensemble"
	"lshensemble/internal/serve"
	"lshensemble/internal/wire"
)

// lockedBuf is a concurrency-safe sink for slog output from live servers.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func scrapeText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTracePropagation pins the router→shard tracing contract: a caller's
// X-Request-Id rides the router's fan-out into every shard and shows up in
// the shard's structured access log under the same trace_id.
func TestTracePropagation(t *testing.T) {
	var shardLog lockedBuf
	logger := slog.New(slog.NewTextHandler(&shardLog, &slog.HandlerOptions{Level: slog.LevelDebug}))
	urls := make([]string, 2)
	for i := range urls {
		idx, err := lshensemble.BuildLive(nil, testLiveOpts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Close)
		srv := serve.NewWith(idx, lshensemble.NewHasher(testNumHash, testSeed), testSeed, "",
			serve.Options{Logger: logger})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	_, rts := startRouter(t, urls, Options{})

	const traceID = "router-trace-42"
	req, err := http.NewRequest("POST", rts.URL+"/query",
		strings.NewReader(`{"values":["alpha","beta"]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router query status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != traceID {
		t.Errorf("router response trace id %q, want %q echoed", got, traceID)
	}
	out := shardLog.String()
	if n := strings.Count(out, "trace_id="+traceID); n != len(urls) {
		t.Errorf("trace id appears in %d shard log lines, want %d (one per scattered shard):\n%s",
			n, len(urls), out)
	}
}

// TestHealthTransitionObservability drives a demote→promote cycle and checks
// the transition counters, the shards_live gauge and the Warn/Info logs.
func TestHealthTransitionObservability(t *testing.T) {
	idx, err := lshensemble.BuildLive(nil, testLiveOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	flaky := &swapHandler{next: serve.NewWith(idx, lshensemble.NewHasher(testNumHash, testSeed), testSeed, "", serve.Options{})}
	fts := httptest.NewServer(flaky)
	t.Cleanup(fts.Close)
	urls, _ := startShards(t, 1)
	urls = append(urls, fts.URL)

	var routerLog lockedBuf
	logger := slog.New(slog.NewTextHandler(&routerLog, &slog.HandlerOptions{Level: slog.LevelInfo}))
	r, rts := startRouter(t, urls, Options{HealthFailures: 1, Logger: logger})
	r.CheckHealth() // the first tick learns the family, which admits both

	text := scrapeText(t, rts.URL)
	if !strings.Contains(text, "lshrouter_shards_live 2") {
		t.Fatalf("scrape missing live=2 gauge:\n%s", text)
	}

	flaky.down.Store(true)
	r.CheckHealth()
	text = scrapeText(t, rts.URL)
	for _, want := range []string{
		`lshrouter_shard_demotions_total{shard="` + fts.URL + `"} 1`,
		"lshrouter_shards_live 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("post-demotion scrape missing %q", want)
		}
	}
	if out := routerLog.String(); !strings.Contains(out, "shard demoted") || !strings.Contains(out, "consecutive_failures=1") {
		t.Errorf("demotion transition not logged:\n%s", out)
	}

	flaky.down.Store(false)
	r.CheckHealth()
	text = scrapeText(t, rts.URL)
	for _, want := range []string{
		`lshrouter_shard_promotions_total{shard="` + fts.URL + `"} 1`,
		"lshrouter_shards_live 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("post-promotion scrape missing %q", want)
		}
	}
	if out := routerLog.String(); !strings.Contains(out, "shard promoted") {
		t.Errorf("promotion transition not logged:\n%s", out)
	}
}

// TestPartialResponseCounter kills one shard under the router's feet (no
// health check yet, so it is still in the ring) and checks the merged
// partial answer bumps lshrouter_partial_responses_total and the dead
// shard's error counter.
func TestPartialResponseCounter(t *testing.T) {
	urls, shards := startShards(t, 2)
	_, rts := startRouter(t, urls, Options{})
	addVia(t, rts.URL, 8)

	shards[0].kill()
	var out RouterQueryResponse
	if code := postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: windowValues(0)}, &out); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if !out.Partial {
		t.Fatal("query with a dead shard was not partial")
	}
	text := scrapeText(t, rts.URL)
	for _, want := range []string{
		"lshrouter_partial_responses_total 1",
		`lshrouter_shard_errors_total{shard="` + urls[0] + `"} 1`,
		`lshrouter_http_requests_total{code="2xx",endpoint="query"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q in:\n%s", want, text)
		}
	}
}

// TestMetricsSeriesSet pins the router's /metrics page — names, labels, HELP
// and TYPE, in order, sample values stripped and the shard URLs (ports differ
// per run) replaced by their rank — to the set recorded before the injectable
// registry and the metrics switch were deleted.
func TestMetricsSeriesSet(t *testing.T) {
	urls, _ := startShards(t, 2)
	_, rts := startRouter(t, urls, Options{})
	addVia(t, rts.URL, 8)
	for path, body := range map[string]any{
		"/query":       wire.QueryRequest{Values: windowValues(0)},
		"/query/topk":  wire.TopKRequest{Values: windowValues(0)},
		"/query/batch": wire.BatchRequest{Queries: []wire.QueryRequest{{Values: windowValues(0)}}},
	} {
		if code := postJSON(t, rts.URL+path, body, nil); code != http.StatusOK {
			t.Fatalf("%s status %d", path, code)
		}
	}
	lines := strings.Split(strings.TrimSpace(scrapeText(t, rts.URL)), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "#") {
			lines[i] = line[:strings.LastIndexByte(line, ' ')]
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	sort.Strings(urls)
	for i, u := range urls {
		got = strings.ReplaceAll(got, u, fmt.Sprintf("shard-%d", i))
	}
	want, err := os.ReadFile("testdata/metrics_series.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the /metrics series set moved; got:\n%s", got)
	}
}
