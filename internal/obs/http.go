package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"time"
)

// --- request tracing ---

// traceKey carries the request trace ID in a context.
type traceKey struct{}

// TraceHeader is the wire header the trace ID rides in: the router stamps
// it on every shard fan-out call, and a caller may supply its own to follow
// one request across the tiers.
const TraceHeader = "X-Request-Id"

// WithTraceID returns ctx carrying the given trace ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID returns the trace ID carried by ctx, or "" when none is set.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// NewTraceID returns a fresh 16-hex-character request ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; trace IDs only need
		// uniqueness-in-practice, so degrade to a timestamp.
		return "t" + hex.EncodeToString([]byte(time.Now().Format("150405.000000")))[:15]
	}
	return hex.EncodeToString(b[:])
}

// sanitizeTraceID accepts a caller-supplied request ID if it is short and
// printable-safe (it is echoed into logs and response headers), else
// reports rejection.
func sanitizeTraceID(id string) (string, bool) {
	if id == "" || len(id) > 64 {
		return "", false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return "", false
		}
	}
	return id, true
}

// EnsureTraceID resolves the trace ID for an inbound request: an
// acceptable X-Request-Id header is honored (so a router-issued ID follows
// the request into the shard), anything else gets a fresh ID.
func EnsureTraceID(r *http.Request) string {
	return ResolveTraceID(r.Header.Get(TraceHeader))
}

// ResolveTraceID is EnsureTraceID for an ID that arrived by another
// transport: id itself when it is acceptable, else a fresh ID.
func ResolveTraceID(id string) string {
	if id, ok := sanitizeTraceID(id); ok {
		return id
	}
	return NewTraceID()
}

// --- HTTP middleware ---

// HTTPMetrics instruments a handler set: per-endpoint request counters
// split by status class, per-endpoint latency histograms, one in-flight
// gauge, plus trace-ID stamping and a structured access log. One
// HTTPMetrics is shared by every endpoint of a binary; Wrap registers the
// endpoint's series and returns the instrumented handler.
type HTTPMetrics struct {
	reg      *Registry
	prefix   string
	logger   *slog.Logger
	inFlight *Gauge
}

// NewHTTPMetrics creates the shared middleware state. prefix namespaces
// the metric families (e.g. "lshensembled" → lshensembled_http_requests_total);
// logger receives the per-request access log (nil → slog.Default()).
func NewHTTPMetrics(reg *Registry, prefix string, logger *slog.Logger) *HTTPMetrics {
	if logger == nil {
		logger = slog.Default()
	}
	return &HTTPMetrics{
		reg:      reg,
		prefix:   prefix,
		logger:   logger,
		inFlight: reg.Gauge(prefix+"_http_in_flight", "Requests currently being served."),
	}
}

// statusClasses maps status/100 → counter index; 1xx/3xx fold into "other".
var statusClasses = [...]string{"2xx", "4xx", "5xx", "other"}

func classIndex(status int) int {
	switch status / 100 {
	case 2:
		return 0
	case 4:
		return 1
	case 5:
		return 2
	default:
		return 3
	}
}

// Wrap instruments one endpoint. endpoint is the label value (the route
// path, e.g. "/query").
func (m *HTTPMetrics) Wrap(endpoint string, next http.Handler) http.Handler {
	return m.Endpoint(endpoint).Wrap(next)
}

// Endpoint is one endpoint's series: requests by status class and latency.
// Wrap serves HTTP requests through it; a transport of its own (serve's
// record connections) reports each request with Begin and End instead, so
// both feed the same series and write the same access-log line.
type Endpoint struct {
	m       *HTTPMetrics
	name    string
	byClass [len(statusClasses)]*Counter
	lat     *Histogram
}

// Endpoint registers one endpoint's series under the label value name.
func (m *HTTPMetrics) Endpoint(name string) *Endpoint {
	e := &Endpoint{m: m, name: name}
	for i, class := range statusClasses {
		e.byClass[i] = m.reg.Counter(m.prefix+"_http_requests_total",
			"HTTP requests by endpoint and status class.",
			L("endpoint", name), L("code", class))
	}
	e.lat = m.reg.Histogram(m.prefix+"_http_request_seconds",
		"HTTP request latency by endpoint.", DefBuckets, L("endpoint", name))
	return e
}

// Wrap returns next instrumented: trace-ID stamping, the in-flight gauge,
// the endpoint's series and the access log.
func (e *Endpoint) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := e.Begin()
		id := EnsureTraceID(r)
		w.Header().Set(TraceHeader, id)
		ctx := WithTraceID(r.Context(), id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		e.End(ctx, id, r.Method, sw.status, sw.bytes, start)
	})
}

// Begin counts one request in flight and returns its start.
func (e *Endpoint) Begin() time.Time {
	e.m.inFlight.Inc()
	return time.Now()
}

// End finishes a request Begin started: it leaves the in-flight gauge, is
// counted by status class and latency, and is logged.
func (e *Endpoint) End(ctx context.Context, id, method string, status int, bytes int64, start time.Time) {
	e.m.inFlight.Dec()
	elapsed := time.Since(start)
	e.lat.Observe(elapsed.Seconds())
	e.byClass[classIndex(status)].Inc()
	// Every request logs at Debug keyed by trace ID (the router→shard
	// tracing contract rides on this line); server-side failures escalate
	// so they surface at default log levels.
	level := slog.LevelDebug
	if status >= 500 {
		level = slog.LevelError
	}
	e.m.logger.LogAttrs(ctx, level, "http",
		slog.String("trace_id", id),
		slog.String("endpoint", e.name),
		slog.String("method", method),
		slog.Int("status", status),
		slog.Int64("bytes", bytes),
		slog.Duration("elapsed", elapsed),
	)
}

// statusWriter captures the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
