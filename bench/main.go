// Command bench is the repository's performance ledger: two power-law
// workloads, seven end-to-end metrics, and a traced run that attributes a
// request's time to layers. BENCHMARK.json at the repository root names what
// it emits; README.md in this directory explains how to read it.
//
// The driver's form, one workload per process, result on the last line:
//
//	bash bench/run.sh --workload fleet_query --seed 3 --seconds 30 --trace 0
//
// By hand (from the repository root, so that bench/out/ lands there):
//
//	bash bench/run.sh                 every workload, end-to-end metrics
//	bash bench/run.sh -trace 1        every workload, per-layer ledger + bench/out/trace.json
//	bash bench/run.sh -aa             the full set twice; fails if any metric differs by more than its bound
//	bash bench/run.sh -quick          the smoke-test scale
//	bash bench/run.sh -manifest       print BENCHMARK.json as the metric lists define it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// runSeconds is BENCHMARK.json's run_seconds and the default of -seconds.
const runSeconds = 30

func main() {
	workloadName := flag.String("workload", "", "workload to run (default: both)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, no spans; 1: per-layer metrics and bench/out/trace.json")
	quick := flag.Bool("quick", false, "smoke-test scale (~1 000 domains); numbers are not comparable with the full scale")
	aa := flag.Bool("aa", false, "run the full end-to-end set twice and fail if any metric differs by more than its bound, either way")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json generated from the metric lists and exit")
	flag.Parse()

	if *printManifest {
		if err := writeManifest(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -help")
		os.Exit(2)
	}
	sc := fullScale
	if *quick {
		sc = quickScale
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}

	if *aa {
		if err := runAA(selected, sc, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}

	correct := true
	var last resultLine
	for _, w := range selected {
		line, err := runOne(w, sc, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		correct = correct && line.Correct
		last = line
	}
	if err := writeTraceFile(); err != nil {
		fatal(err)
	}
	if len(selected) == 1 {
		// The contract's result: one JSON object, last on standard output.
		out, err := json.Marshal(last)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	}
	if !correct {
		os.Exit(1)
	}
}

// runOne runs one workload in one mode and prints its metrics.
func runOne(w workload, sc scale, seed uint64, seconds float64, traced bool) (resultLine, error) {
	if traced {
		rep, err := runTraced(w, sc, seed)
		if err != nil {
			return resultLine{}, err
		}
		return rep.finish(os.Stdout, perLayerDefs, false), nil
	}
	rep, err := runEndToEnd(w, sc, seed, seconds)
	if err != nil {
		return resultLine{}, err
	}
	return rep.finish(os.Stdout, endToEndDefs, true), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
