package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lshensemble"
)

// How a run's --seconds are spent: in rounds, dealt out evenly over the run's
// set-ups (three at full scale), so that the samples of every metric span the
// whole run: its fastest repetition has the whole run in which to find the
// machine undisturbed (see phase in loadgen.go). A set-up's fixture is what the
// seed makes it, so a position of the lap is the same request on each of them.
// On every fixture: set-up (timed), one unmeasured lap, its rounds; on the
// first, the quality check and the save. A round replays the lap in the primary
// phase — at the frozen mid rate (open loop) or one call at a time (library) —
// and in the saturation phase (closed loop, nproc workers), and nothing else:
// every second a run has goes to set-up, to the answers' check or to a lap. A
// round costs what the workload says it does (workload.roundSeconds), and
// --seconds buys that many.
const minRounds = 3

// roundsOf is how many rounds the s-th of a run's set-ups gets. Laps per phase
// are counted, not timed (workload.primaryLaps, satLaps): every run of a
// workload then has the same number of replays behind its figures.
func roundsOf(w workload, seconds float64, setups, s int) int {
	rounds := max(minRounds, int(seconds/w.roundSeconds+0.5))
	n := rounds / setups
	if s < rounds%setups {
		n++
	}
	return n
}

// outDir is where the harness writes (trace.json, scratch data). It is
// relative to the working directory, which bench/run.sh sets to the checkout
// root, and is listed in .gitignore. Tests point it at a temporary directory.
var outDir = "bench/out"

// scratchDir makes an empty directory for one set-up's files.
func scratchDir(workload string, attempt int) (string, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("%s-%d-%d", workload, os.Getpid(), attempt))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// newFixture sets the workload up in a scratch directory of its own and
// returns how long that took.
func newFixture(w workload, sc scale, seed uint64, attempt int) (*fixture, time.Duration, error) {
	dir, err := scratchDir(w.name, attempt)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	fx, err := w.setup(sc, seed, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return fx, time.Since(start), nil
}

// close stops the fixture's servers and compactors and removes its files.
func (fx *fixture) close() {
	fx.stop()
	os.RemoveAll(fx.dir)
}

// call sends one op of a lap to the fixture's target.
func (fx *fixture) call(worker int, o op) outcome {
	t := fx.target
	switch o.kind {
	case opQuery:
		return t.query(worker, int(o.arg))
	case opTopK:
		return t.topk(int(o.arg))
	default:
		return t.batch(int(o.arg))
	}
}

// plannerTotals sums the compactor's and the planner's counters over the
// fixture's indexes and counts the live domains.
func (fx *fixture) plannerTotals() (lshensemble.LiveStats, int) {
	var sum lshensemble.LiveStats
	domains := 0
	for _, idx := range fx.lives {
		st := idx.Stats()
		domains += st.Domains
		sum.Seals += st.Seals
		sum.Merges += st.Merges
		sum.Tombstones += st.Tombstones
		sum.Buffered += st.Buffered
		sum.SignatureBytes += st.SignatureBytes
		sum.Segments = append(sum.Segments, st.Segments...)
		p, q := &sum.Planner, st.Planner
		p.SegmentsProbed += q.SegmentsProbed
		p.SegmentsRangePruned += q.SegmentsRangePruned
		p.SegmentsBloomPruned += q.SegmentsBloomPruned
		p.PlanHits += q.PlanHits
		p.PlanMisses += q.PlanMisses
		p.ResultHits += q.ResultHits
		p.ResultMisses += q.ResultMisses
		p.BufferScans += q.BufferScans
		p.BufferBloomPruned += q.BufferBloomPruned
	}
	return sum, domains
}

// tally counts what the measured traffic did to the compactor and the caches,
// added up over the stretches between two readings of the counters.
type tally struct {
	seals, merges                                  uint64
	resultHits, resultMisses, planHits, planMisses uint64
}

// watch reads the counters now and returns a function that adds to t what
// they moved by until it is called, once the compactor has come to rest (a
// merge still running belongs to the traffic that caused it).
func (t *tally) watch(fx *fixture) (stop func()) {
	before, _ := fx.plannerTotals()
	return func() {
		for _, idx := range fx.lives {
			waitIdle(idx)
		}
		after, _ := fx.plannerTotals()
		t.seals += after.Seals - before.Seals
		t.merges += after.Merges - before.Merges
		b, a := before.Planner, after.Planner
		t.resultHits += a.ResultHits - b.ResultHits
		t.resultMisses += a.ResultMisses - b.ResultMisses
		t.planHits += a.PlanHits - b.PlanHits
		t.planMisses += a.PlanMisses - b.PlanMisses
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// checkRegime asserts the cache regime each workload claims. A workload in
// the wrong regime would still print numbers, but they would answer another
// question.
func (t *tally) checkRegime(rep *report, w workload) (resultHit, planHit float64) {
	resultHit = ratio(t.resultHits, t.resultHits+t.resultMisses)
	planHit = ratio(t.planHits, t.planHits+t.planMisses)
	switch {
	case w.cached && resultHit <= 0.5:
		rep.violate("%s result-cache hit ratio %.3f, want > 0.5 (the pool must fit the cache)", w.name, resultHit)
	case !w.cached && resultHit >= 0.05:
		rep.violate("%s result-cache hit ratio %.3f, want < 0.05 (the cache must be useless here)", w.name, resultHit)
	}
	return resultHit, planHit
}

// measurements are the samples of one end-to-end run, gathered over all of
// its set-ups.
type measurements struct {
	primary, sat *phaseResult
	setups       []float64 // seconds
	seen         tally
}

// runEndToEnd is one untraced run of one workload: it records no spans and
// emits exactly the end-to-end metrics.
func runEndToEnd(w workload, sc scale, seed uint64, seconds float64) (*report, error) {
	rep := newReport(w.name)
	var m measurements
	for s := 0; s < sc.setups; s++ {
		if err := m.measure(rep, w, sc, seed, s, roundsOf(w, seconds, sc.setups, s)); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		runtime.GC() // the fixture just closed is not the next one's to mark
	}

	p := m.primary
	rep.count(p)
	rep.count(m.sat)
	rep.set("setup_s", medianFloat(m.setups))
	rep.set("query_p50_ms", ms(p.latency(opQuery, 0.50)))
	rep.set("batch_p50_ms", ms(p.latency(opBatch, 0.50)))
	rep.set("sat_qps", m.sat.opsPerSecond())

	resultHit, _ := m.seen.checkRegime(rep, w)
	rep.note("primary: %d laps of %d ops, positions query/topk/batch = %d/%d/%d, generator late p95 %.3f ms",
		len(p.laps), len(p.ops), len(p.positions(opQuery)), len(p.positions(opTopK)), len(p.positions(opBatch)), ms(p.lateness(0.95)))
	// Not end-to-end metrics (they follow the neighbours' memory traffic by more
	// than a bound allows; the traced run reports them per layer), but a reader
	// of a run wants them.
	rep.note("primary, fastest replay: query p95 %.3f ms, top-k p50 %.3f ms", ms(p.latency(opQuery, 0.95)), ms(p.latency(opTopK, 0.50)))
	rep.note("saturation: %d laps; regime: result-cache hit ratio %.3f", len(m.sat.laps), resultHit)
	return rep, nil
}

// measure sets the workload up once more and runs that fixture's share of the
// run on it.
func (m *measurements) measure(rep *report, w workload, sc scale, seed uint64, attempt, rounds int) error {
	fx, took, err := newFixture(w, sc, seed, attempt)
	if err != nil {
		return err
	}
	defer fx.close()
	m.setups = append(m.setups, took.Seconds())

	if attempt == 0 {
		m.primary = &phaseResult{ops: fx.lap}
		m.sat = &phaseResult{ops: fx.lap}
		// Answers against the exact engine.
		recall, precision, attempted, failed := qualityCheck(fx.corpus, fx.indexed, fx.in.quality, fx.target.answer)
		rep.attempted += attempted
		rep.failed += failed
		rep.set("recall", recall)
		rep.set("precision", precision)
		floor := qualityFloors[w.name]
		if recall < floor[0] || precision < floor[1] {
			rep.violate("recall %.4f / precision %.4f under the committed floors %.2f / %.2f", recall, precision, floor[0], floor[1])
		}
		runtime.GC() // the exact engine's garbage is not the workload's

		// Save, as the target's operator would.
		_, domains := fx.plannerTotals()
		_, size, err := fx.save()
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
		rep.set("bytes_per_domain", float64(size)/float64(domains))
	}

	// One unmeasured lap warms the caches; the phases follow one another.
	stop := m.seen.watch(fx)
	warm := &phaseResult{ops: fx.lap}
	phase{workers: nproc, before: fx.before}.lap(warm, false, fx.call)
	rep.count(warm)

	primary := phase{workers: 1, before: fx.before}
	if fx.rates[1] > 0 {
		primary.rate, primary.workers = fx.rates[1], nproc
	}
	saturation := phase{workers: nproc, before: fx.before}
	for r := 0; r < rounds; r++ {
		primary.run(m.primary, w.primaryLaps, fx.call)
		saturation.run(m.sat, w.satLaps, fx.call)
	}
	stop()
	if p := m.primary; primary.rate > 0 && p.latency(opQuery, 0.95) > latencyLimit {
		// Not a wrong answer: on a shared VM a slow minute does this. But the
		// ladder was calibrated so that the mid rate sits far below the limit,
		// and a reader of the numbers should know when it did not.
		rep.note("WARNING: query p95 %.2f ms at the frozen mid rate %.0f/s exceeds the %.0f ms limit the rate ladder was calibrated for",
			ms(p.latency(opQuery, 0.95)), primary.rate, ms(latencyLimit))
	}
	return nil
}
