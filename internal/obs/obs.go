// Package obs is the dependency-free observability core shared by every
// serving layer: a metrics registry of atomic counters, gauges and
// fixed-bucket latency histograms, a Prometheus-text-format exporter,
// (http.go) the HTTP middleware + request-tracing helpers both binaries
// mount their endpoints behind, and (debug.go) Listener, their shared
// command line and listener lifecycle.
//
// The design constraint is the hot path: recording — Counter.Add,
// Gauge.Set, Histogram.Observe — is a handful of atomic operations and
// performs zero allocations, so instrumentation can sit directly on the
// live index's query path without disturbing its allocation-free steady
// state. All allocation happens at registration time (startup) or at
// scrape time (an operator polling /metrics), never per request.
//
// Metric handles are registered once with fixed label values and used
// forever:
//
//	reg := obs.NewRegistry()
//	hits := reg.Counter("cache_hits_total", "Cache hits.", obs.L("tier", "result"))
//	lat := reg.Histogram("query_seconds", "Query latency.", obs.DefBuckets, obs.L("op", "query"))
//	...
//	hits.Inc()
//	lat.Observe(time.Since(start).Seconds())
//
// Registering the same family name again with different labels appends a
// child series; re-registering an identical (name, labels) pair, or the
// same name with a different type or help string, panics — both are
// startup-time programmer errors, not runtime conditions.
//
// Histograms use fixed, sorted upper bounds (seconds) and export as
// Prometheus cumulative buckets plus _sum and _count.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one fixed name="value" pair attached to a metric at
// registration.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for Label{Name: name, Value: value}.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store overwrites the value. It exists to mirror an external monotone
// source (e.g. the live index's planner counters) into the registry at
// scrape time; regular instrumentation should use Inc/Add.
func (c *Counter) Store(v uint64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (an int64). All methods are
// safe for concurrent use and allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind discriminates the one non-nil handle in a child.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled series of a family.
type child struct {
	labels string // pre-rendered `key="value",...` (no braces), "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histogram families only; children must agree
	kids    []*child
}

// Registry holds registered metrics and renders them in Prometheus text
// format. Registration is synchronized; recording on the returned handles
// never touches the registry again.
type Registry struct {
	mu       sync.Mutex
	fams     map[string]*family
	names    []string // registration order; sorted copy taken at export
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// OnScrape registers fn to run at the start of every export, before any
// metric is read. Use it to sync externally maintained values (e.g. the
// live index's Stats counters) into registered handles so one scrape sees
// a coherent view.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// register adds one series, creating the family on first use.
func (r *Registry) register(name, help string, kind metricKind, buckets []float64, labels []Label) *child {
	if name == "" {
		panic("obs: empty metric name")
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, buckets: buckets}
		r.fams[name] = f
		r.names = append(r.names, name)
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
		}
		if f.help != help {
			panic(fmt.Sprintf("obs: metric %q registered with two help strings", name))
		}
		for _, k := range f.kids {
			if k.labels == ls {
				panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, ls))
			}
		}
	}
	k := &child{labels: ls}
	f.kids = append(f.kids, k)
	return k
}

// Counter registers (or extends) a counter family and returns the handle
// for the given label set.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	k := r.register(name, help, kindCounter, nil, labels)
	k.c = &Counter{}
	return k.c
}

// Gauge registers (or extends) a gauge family and returns the handle for
// the given label set.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	k := r.register(name, help, kindGauge, nil, labels)
	k.g = &Gauge{}
	return k.g
}

// Histogram registers (or extends) a histogram family and returns the
// handle for the given label set. buckets are sorted upper bounds in the
// observed unit (seconds for latency); nil selects DefBuckets; every child
// of one family must use identical buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	h := newHistogram(buckets)
	r.mu.Lock()
	if f := r.fams[name]; f != nil && !equalBuckets(f.buckets, buckets) {
		r.mu.Unlock()
		panic(fmt.Sprintf("obs: histogram %q registered with two bucket layouts", name))
	}
	r.mu.Unlock()
	k := r.register(name, help, kindHistogram, h.bounds, labels)
	k.h = h
	return k.h
}

func equalBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// renderLabels pre-renders a label set as `k1="v1",k2="v2"` with
// Prometheus escaping, sorted by name so logically equal sets collide in
// the duplicate check.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): families sorted by name, children in
// registration order. OnScrape callbacks run first.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	callbacks := append([]func(){}, r.onScrape...)
	names := append([]string{}, r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()
	for _, fn := range callbacks {
		fn()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b []byte
	for _, f := range fams {
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, escapeHelp(f.help)...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind.String()...)
		b = append(b, '\n')
		for _, k := range f.kids {
			switch f.kind {
			case kindCounter:
				b = appendSeries(b, f.name, "", k.labels, "")
				b = strconv.AppendUint(b, k.c.Value(), 10)
				b = append(b, '\n')
			case kindGauge:
				b = appendSeries(b, f.name, "", k.labels, "")
				b = strconv.AppendInt(b, k.g.Value(), 10)
				b = append(b, '\n')
			case kindHistogram:
				b = k.h.appendText(b, f.name, k.labels)
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// appendSeries appends `name[suffix]{labels[,extra]} ` (trailing space
// included) to b, omitting empty braces.
func appendSeries(b []byte, name, suffix, labels, extra string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if labels != "" || extra != "" {
		b = append(b, '{')
		b = append(b, labels...)
		if labels != "" && extra != "" {
			b = append(b, ',')
		}
		b = append(b, extra...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	return b
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
