package obs

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops_total", "Ops.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("depth", "Depth.")
	g.Set(7)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

// TestHistogramBucketBoundaries pins the le-is-inclusive contract: a value
// exactly on a bound lands in that bound's bucket, a hair above lands in
// the next, and anything past the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "Latency.", []float64{0.001, 0.01, 0.1})
	obsv := []float64{
		0.0005,  // bucket 0
		0.001,   // bucket 0 (le is inclusive)
		0.00101, // bucket 1
		0.01,    // bucket 1
		0.1,     // bucket 2
		0.5,     // +Inf
		3.0,     // +Inf
	}
	for _, v := range obsv {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 2}
	for i := range h.counts {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, got, want[i])
		}
	}
	if got := h.Count(); got != 7 {
		t.Errorf("count = %d, want 7", got)
	}
	sum := 0.0
	for _, v := range obsv {
		sum += v
	}
	if got := h.Sum(); math.Abs(got-sum) > 1e-12 {
		t.Errorf("sum = %v, want %v", got, sum)
	}
}

// TestConcurrentHammer races many writers over one counter, gauge and
// histogram and checks nothing is lost (run under -race in CI).
func TestConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops_total", "Ops.")
	g := reg.Gauge("flight", "In flight.")
	h := reg.Histogram("lat", "Latency.", []float64{0.25, 0.5, 0.75})
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i%100) / 100)
				g.Dec()
			}
		}(w)
	}
	// A concurrent scraper reads /metrics against the writers.
	scrape := func() string {
		rec := httptest.NewRecorder()
		reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	stop := make(chan struct{})
	var scrapeWg sync.WaitGroup
	scrapeWg.Add(1)
	go func() {
		defer scrapeWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				scrape()
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapeWg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	text := scrape()
	for _, want := range []string{
		fmt.Sprintf("lat_count %d\n", workers*perWorker),
		fmt.Sprintf(`lat_bucket{le="+Inf"} %d`+"\n", workers*perWorker),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestRecordPathZeroAllocs is the tentpole's core promise: recording into
// counters, gauges and histograms allocates nothing, so instrumentation
// can sit on the live index's allocation-free query path.
func TestRecordPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	reg := NewRegistry()
	c := reg.Counter("ops_total", "Ops.")
	g := reg.Gauge("flight", "In flight.")
	h := reg.Histogram("lat", "Latency.", DefBuckets)
	ctx := WithTraceID(context.Background(), "abc")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		g.Add(-1)
		h.Observe(0.0042)
		if TraceID(ctx) == "" {
			t.Fatal("trace id lost")
		}
	}); n != 0 {
		t.Fatalf("record path allocates %v/op, want 0", n)
	}
	start := time.Now()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(time.Since(start).Seconds()) }); n != 0 {
		t.Fatalf("timed Observe allocates %v/op, want 0", n)
	}
}

// TestPrometheusGolden pins the text exposition format byte-for-byte:
// HELP/TYPE lines, family sorting, label rendering and escaping,
// cumulative histogram buckets, and OnScrape synchronization.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	// Registered out of name order on purpose: export must sort families.
	zc := reg.Counter("z_total", "Last family.")
	zc.Add(2)
	c1 := reg.Counter("app_requests_total", "Requests by endpoint.",
		L("endpoint", "/query"), L("code", "2xx"))
	c1.Add(7)
	reg.Counter("app_requests_total", "Requests by endpoint.",
		L("endpoint", "/query"), L("code", "5xx"))
	esc := reg.Counter("app_odd_total", "Help with \\ and\nnewline.",
		L("name", "quote\" slash\\ nl\n"))
	esc.Inc()
	g := reg.Gauge("app_depth", "Depth.")
	reg.OnScrape(func() { g.Set(-3) })
	h := reg.Histogram("app_seconds", "Latency.", []float64{0.5, 2.5}, L("op", "q"))
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(3.5)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP app_depth Depth.`,
		`# TYPE app_depth gauge`,
		`app_depth -3`,
		`# HELP app_odd_total Help with \\ and\nnewline.`,
		`# TYPE app_odd_total counter`,
		`app_odd_total{name="quote\" slash\\ nl\n"} 1`,
		`# HELP app_requests_total Requests by endpoint.`,
		`# TYPE app_requests_total counter`,
		`app_requests_total{code="2xx",endpoint="/query"} 7`,
		`app_requests_total{code="5xx",endpoint="/query"} 0`,
		`# HELP app_seconds Latency.`,
		`# TYPE app_seconds histogram`,
		`app_seconds_bucket{op="q",le="0.5"} 2`,
		`app_seconds_bucket{op="q",le="2.5"} 2`,
		`app_seconds_bucket{op="q",le="+Inf"} 3`,
		`app_seconds_sum{op="q"} 4.25`,
		`app_seconds_count{op="q"} 3`,
		`# HELP z_total Last family.`,
		`# TYPE z_total counter`,
		`z_total 2`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("prometheus text mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRegistryMisusePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.Counter("a_total", "A.")
	mustPanic("duplicate series", func() { reg.Counter("a_total", "A.") })
	mustPanic("type mismatch", func() { reg.Gauge("a_total", "A.") })
	mustPanic("help mismatch", func() { reg.Counter("a_total", "Other.", L("x", "y")) })
	reg.Histogram("h_seconds", "H.", []float64{1, 2}, L("op", "a"))
	mustPanic("bucket mismatch", func() { reg.Histogram("h_seconds", "H.", []float64{1, 3}, L("op", "b")) })
	mustPanic("unsorted buckets", func() { reg.Histogram("bad_seconds", "B.", []float64{2, 1}) })
}

func TestTraceIDSanitization(t *testing.T) {
	ok := []string{"abc123", "req-7", "a_b.c:d", strings.Repeat("x", 64)}
	for _, id := range ok {
		if got, accepted := sanitizeTraceID(id); !accepted || got != id {
			t.Errorf("sanitizeTraceID(%q) rejected a valid id", id)
		}
	}
	bad := []string{"", strings.Repeat("x", 65), "has space", "quote\"", "nl\n", "søme"}
	for _, id := range bad {
		if _, accepted := sanitizeTraceID(id); accepted {
			t.Errorf("sanitizeTraceID(%q) accepted an invalid id", id)
		}
	}
	if a, b := NewTraceID(), NewTraceID(); a == b || len(a) != 16 {
		t.Errorf("NewTraceID not unique-ish: %q vs %q", a, b)
	}
}

// TestHTTPMiddleware drives one wrapped endpoint end to end: status-class
// counters, latency histogram, in-flight gauge, trace-ID header echo and
// honoring, and the structured access log keyed by trace ID.
func TestHTTPMiddleware(t *testing.T) {
	reg := NewRegistry()
	var logBuf syncBuffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	m := NewHTTPMetrics(reg, "test", logger)
	var sawTrace string
	h := m.Wrap("/echo", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawTrace = TraceID(r.Context())
		if r.URL.Query().Get("fail") != "" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/echo", nil)
	req.Header.Set(TraceHeader, "trace-mw-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "trace-mw-1" {
		t.Errorf("response trace header = %q, want trace-mw-1 (inbound id honored)", got)
	}
	if sawTrace != "trace-mw-1" {
		t.Errorf("handler ctx trace = %q, want trace-mw-1", sawTrace)
	}
	// A second request without a header gets a generated ID.
	resp2, err := http.Get(ts.URL + "/echo")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(TraceHeader); len(got) != 16 {
		t.Errorf("generated trace header = %q, want 16 hex chars", got)
	}
	// And one failing request for the 5xx class.
	resp3, err := http.Get(ts.URL + "/echo?fail=1")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		`test_http_requests_total{code="2xx",endpoint="/echo"} 2`,
		`test_http_requests_total{code="5xx",endpoint="/echo"} 1`,
		`test_http_in_flight 0`,
		`test_http_request_seconds_count{endpoint="/echo"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q in:\n%s", want, text)
		}
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "trace_id=trace-mw-1") {
		t.Errorf("access log missing trace id:\n%s", logs)
	}
	if !strings.Contains(logs, "status=500") {
		t.Errorf("access log missing 5xx line:\n%s", logs)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
