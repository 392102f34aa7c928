package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric of the ledger. The lists below are the single
// source of the names: BENCHMARK.json is generated from them (-manifest) and
// the smoke test fails when the committed file and these lists disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the parent's median
}

// workloadDefs are the two workloads, with the reason each exists.
var workloadDefs = []struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}{
	{"fleet_query", "router + 2 shards over loopback, read-only Zipf pool that fits the result cache: cluster + serve (JSON, server-side sketch, extra hop) do most of the work, the probe kernel little"},
	{"lib_query", "in-process live.Index, pre-sketched distinct queries, a new generation every lap so the result cache never hits: tune + lshforest + live planner do all the work, serve/cluster/minhash none"},
}

// End-to-end metrics are the ones both workloads measure natively and that
// repeat. The driver runs each workload alone, wants every end-to-end metric
// from each, and accepts the benchmark only if the interquartile spread of ten
// runs on ten seeds stays inside the bound for every (workload, metric) pair —
// on a VM that shares its last-level cache with neighbours whose traffic slows
// memory-bound code for minutes at a time (README "What the VM does to a
// number"). Inside a run every figure is a fastest repetition (phase in
// loadgen.go); between runs nothing helps but a metric's own indifference to
// that traffic, measured as the gap between the runs of a quiet stretch and
// those of a loud one: 3–11 % for the metrics below, 16–27 % for what went
// per-layer, as the issue said to do with a metric that does not hold its
// bound — top-k latency (cluster.topk_p50_ms, live.lap_topk_us, live.topk_us),
// the tails (cluster.p95_ms_r2, cluster.query_p99_ms, live.query_p95_us),
// sketch_mvals_s (minhash.ns_per_value), build_kdomains_s (core.build_ms,
// live.compact_ms), boot_ms (segfile.load_heap_ms) and the add latencies
// (live.add_us, serve.add_handler_us), whose workload, daemon_mixed, read
// 27 % apart between the two kinds of stretch. A bound is the share of the
// parent's median by which a metric may worsen; 0.25 is the contract's cap.
// What the seed decides and the clock does not is held tightly: recall and
// precision over 2 000 queries move by at most 1.1 % and 3.3 % from seed to
// seed, and bytes_per_domain is the same number for every seed, so its bound
// is as good as "exact": one more 8-byte field per domain is four times it.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"batch_p50_ms", "ms", "lower", 0.25},
	{"sat_qps", "ops/s", "higher", 0.25},
	{"recall", "ratio", "higher", 0.03},
	{"precision", "ratio", "higher", 0.10},
	{"bytes_per_domain", "B", "lower", 0.001},
}

// perLayerDefs are emitted by the traced run. A layer a workload does not
// exercise reads 0 there — that is the demonstration of the workload's regime
// (serve/cluster/minhash contribute 0 on lib_query), not a missing value.
var perLayerDefs = []metricDef{
	{Name: "minhash.sketch_us", Unit: "us", Better: "lower"},
	{Name: "minhash.values_per_query", Unit: "count", Better: "lower"},
	{Name: "minhash.ns_per_value", Unit: "ns", Better: "lower"},

	{Name: "tune.plan_us", Unit: "us", Better: "lower"},
	{Name: "live.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "lshforest.probe_us", Unit: "us", Better: "lower"},
	{Name: "core.query_us", Unit: "us", Better: "lower"},
	{Name: "core.topk_us", Unit: "us", Better: "lower"},
	{Name: "core.batch_us_per_query", Unit: "us", Better: "lower"},
	{Name: "core.candidates_per_query", Unit: "count", Better: "lower"},

	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.decode_ms", Unit: "ms", Better: "lower"},

	{Name: "live.query_us", Unit: "us", Better: "lower"},
	{Name: "live.query_p95_us", Unit: "us", Better: "lower"},
	{Name: "live.lap_topk_us", Unit: "us", Better: "lower"},
	{Name: "live.topk_us", Unit: "us", Better: "lower"},
	{Name: "live.batch_us_per_query", Unit: "us", Better: "lower"},
	{Name: "live.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "live.segments", Unit: "count", Better: "lower"},
	{Name: "live.buffered", Unit: "count", Better: "lower"},
	{Name: "live.segments_probed_per_query", Unit: "count", Better: "lower"},
	{Name: "live.pruned_frac", Unit: "ratio", Better: "higher"},
	{Name: "live.buffer_scan_frac", Unit: "ratio", Better: "lower"},
	{Name: "live.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "live.add_us", Unit: "us", Better: "lower"},
	{Name: "live.delete_us", Unit: "us", Better: "lower"},
	{Name: "live.seal_ms", Unit: "ms", Better: "lower"},
	{Name: "live.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "live.seals", Unit: "count", Better: "lower"},
	{Name: "live.merges", Unit: "count", Better: "lower"},
	{Name: "live.tombstones", Unit: "count", Better: "lower"},

	{Name: "live.signature_bytes", Unit: "B", Better: "lower"},
	{Name: "live.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "segfile.save_ms", Unit: "ms", Better: "lower"},
	{Name: "segfile.file_bytes", Unit: "B", Better: "lower"},
	{Name: "segfile.load_heap_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.codec_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_us", Unit: "us", Better: "lower"},
	{Name: "serve.transport_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.add_handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.req_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "B", Better: "lower"},

	{Name: "cluster.query_us", Unit: "us", Better: "lower"},
	{Name: "cluster.router_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.slowest_shard_us", Unit: "us", Better: "lower"},
	{Name: "cluster.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "cluster.fanout", Unit: "count", Better: "lower"},
	{Name: "cluster.partials", Unit: "count", Better: "lower"},
	{Name: "cluster.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.topk_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.p95_ms_r1", Unit: "ms", Better: "lower"},
	{Name: "cluster.p95_ms_r2", Unit: "ms", Better: "lower"},
	{Name: "cluster.p95_ms_r3", Unit: "ms", Better: "lower"},
	{Name: "cluster.p95_ms_r4", Unit: "ms", Better: "lower"},
	{Name: "cluster.rate_ok_qps", Unit: "ops/s", Better: "higher"},
	{Name: "cluster.attributed_frac", Unit: "ratio", Better: "higher"},

	{Name: "bench.gen_late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// manifest is the shape of BENCHMARK.json, key for key. A per-layer metric
// has no bound, and a zero bound is left out.
type manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  any         `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	})
}

// report is what one run of one workload produced.
type report struct {
	workload   string
	values     map[string]float64
	attempted  int
	failed     int
	partials   int
	violations []string // a violated regime or floor assertion fails the run
	notes      []string // printed above the metrics, not part of the result line
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count folds one phase's attempts and failures into the run's totals.
func (r *report) count(p *phaseResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.partials += p.partials
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish checks the report against the metric list of its mode, prints the
// metrics by name with their units, and returns the contract's result line.
// End-to-end values must be finite and positive (the contract forbids a
// metric that can read 0); per-layer values must be finite and non-negative.
func (r *report) finish(w io.Writer, defs []metricDef, endToEnd bool) resultLine {
	known := make(map[string]bool, len(defs))
	line := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := r.values[d.Name]
		switch {
		case !ok:
			r.violate("metric %s was not measured", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.violate("metric %s is %v", d.Name, v)
			v = 0
		case endToEnd && v <= 0:
			r.violate("end-to-end metric %s = %v, want > 0", d.Name, v)
		case v < 0:
			r.violate("metric %s = %v, want >= 0", d.Name, v)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range r.values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		r.violate("metric %s is emitted but not listed in BENCHMARK.json", name)
	}
	if r.failed > 0 {
		r.violate("%d of %d operations failed", r.failed, r.attempted)
	}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	line.Correct = len(r.violations) == 0

	fmt.Fprintf(w, "== %s ==\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.Name, line.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  partial %d\n", r.attempted, r.failed, r.partials)
	for _, v := range r.violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
	return line
}
