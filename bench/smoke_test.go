package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// quickSeconds sizes the smoke runs: 1 s of measured phases per workload.
const quickSeconds = 1

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at the -quick scale in both modes and holds
// the output against the committed BENCHMARK.json: every workload and metric
// the file names is emitted, finite and (end to end) positive, under a
// well-formed name, and the harness emits no name the file does not list. A
// violated regime assertion or a wrong answer fails it too, because finish
// folds those into Correct.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading the committed manifest: %v", err)
	}
	var committed struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var generated bytes.Buffer
	if err := writeManifest(&generated); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(raw), bytes.TrimSpace(generated.Bytes())) {
		t.Errorf("BENCHMARK.json differs from what the metric lists generate; run `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	if len(committed.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(committed.Workloads), len(workloads))
	}

	outDir = t.TempDir()
	for _, cw := range committed.Workloads {
		w, ok := workloadByName(cw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the harness does not have", cw.Name)
			continue
		}
		for _, mode := range []struct {
			name   string
			traced bool
			defs   []metricDef
		}{{"end_to_end", false, committed.EndToEnd}, {"per_layer", true, committed.PerLayer}} {
			t.Run(cw.Name+"/"+mode.name, func(t *testing.T) {
				var rep *report
				var err error
				if mode.traced {
					rep, err = runTraced(w, quickScale, 1)
				} else {
					rep, err = runEndToEnd(w, quickScale, 1, quickSeconds)
				}
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				// finish checks the harness's own lists; the loop below
				// checks the committed file's.
				line := rep.finish(&out, map[bool][]metricDef{false: endToEndDefs, true: perLayerDefs}[mode.traced], !mode.traced)
				if !line.Correct {
					t.Errorf("run is not correct:\n%s", out.String())
				}
				listed := make(map[string]bool, len(mode.defs))
				for _, d := range mode.defs {
					listed[d.Name] = true
					if !nameRE.MatchString(d.Name) {
						t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
					}
					m, ok := line.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s is named in BENCHMARK.json but not emitted", d.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.Name, m.Value)
					case !mode.traced && m.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", d.Name, m.Value)
					case m.Unit != d.Unit:
						t.Errorf("%s is emitted in %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
					}
				}
				for name := range line.Metrics {
					if !listed[name] {
						t.Errorf("the harness emits %s, which BENCHMARK.json does not list", name)
					}
				}
			})
		}
	}
	if err := writeTraceFile(); err != nil {
		t.Errorf("writing trace.json: %v", err)
	}
	traceRuns = nil
}

// TestManifestShape holds the generated manifest to the contract's limits
// that a typo could break.
func TestManifestShape(t *testing.T) {
	var buf bytes.Buffer
	if err := writeManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.NewDecoder(io.TeeReader(&buf, io.Discard)).Decode(&m); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	hasSetup := false
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if seen[d.Name] {
			t.Errorf("%s is listed twice", d.Name)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range m.PerLayer {
		if seen[d.Name] {
			t.Errorf("%s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("manifest outside the contract's limits: %d end-to-end, %d per-layer, %d s", len(m.EndToEnd), len(m.PerLayer), m.RunSeconds)
	}
}
