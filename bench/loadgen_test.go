package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func lapOf(n int) []op { return make([]op, n) } // n single queries

// TestOpenLoopCountsTheWait drives the open loop against a stub that stalls
// once for 50 ms. With one worker, the requests that fell due during the
// stall are sent late; their reported latency must run from their due time,
// so it includes the wait (no coordinated omission), and the generator must
// report how late it ran.
func TestOpenLoopCountsTheWait(t *testing.T) {
	const stall = 50 * time.Millisecond
	var calls atomic.Int64
	stub := func(_ int, _ op) outcome {
		if calls.Add(1) == 20 {
			time.Sleep(stall)
		}
		return outcome{ok: true}
	}
	// 1000/s for 200 ms: ~50 requests fall due behind the stalled one.
	p := &phaseResult{ops: lapOf(200)}
	phase{rate: 1000, workers: 1}.run(p, 1, stub)

	if p.failed != 0 || p.attempted != 200 || len(p.lat) != 1 {
		t.Fatalf("attempted %d, failed %d, %d laps: the phase did not run its one lap", p.attempted, p.failed, len(p.lat))
	}
	queued := 0
	for _, d := range p.lat[0] {
		if d >= stall/2 {
			queued++
		}
	}
	// The stalled request itself is one; everything else this slow waited
	// behind it. A generator that timed from the send would report exactly 1.
	if queued < 10 {
		t.Errorf("%d requests report >= %v; the wait behind the stall is not counted from the due time", queued, stall/2)
	}
	if late := p.lateness(0.95); late < stall/4 {
		t.Errorf("generator lateness p95 = %v, want it to show the backlog of a %v stall", late, stall)
	}
	if p.maxInFlight > 1 {
		t.Errorf("max in flight %d with one worker", p.maxInFlight)
	}
}

// TestInFlightNeverExceedsWorkers: with nproc workers and a slow target the
// generator falls behind rather than open more requests.
func TestInFlightNeverExceedsWorkers(t *testing.T) {
	var inFlight, peak atomic.Int32
	stub := func(_ int, _ op) outcome {
		if n := inFlight.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return outcome{ok: true}
	}
	p := &phaseResult{ops: lapOf(100)}
	phase{rate: 5000, workers: nproc}.run(p, 1, stub)
	if int(peak.Load()) > nproc || p.maxInFlight > nproc {
		t.Errorf("in flight peaked at %d (generator saw %d), want <= nproc = %d", peak.Load(), p.maxInFlight, nproc)
	}
	if p.opsPerSecond() > 1000*float64(nproc)/2*1.2 {
		t.Errorf("completed %.0f/s: more than %d workers at 2 ms a call can do", p.opsPerSecond(), nproc)
	}
}

// TestFastestReplayDropsTheStall: a position's figure is its fastest replay,
// so a stall that hits one replay of three leaves no mark, while a position
// that is slow in every replay keeps its cost. An unmeasured lap is attempted
// but leaves no sample, and before runs ahead of every lap.
func TestFastestReplayDropsTheStall(t *testing.T) {
	const slowPos, stallLap = 7, 2
	lap, laps := lapOf(20), 0
	for i := range lap {
		lap[i].arg = int32(i)
	}
	stub := func(_ int, o op) outcome {
		switch {
		case int(o.arg) == slowPos:
			time.Sleep(5 * time.Millisecond)
		case laps == stallLap:
			time.Sleep(20 * time.Millisecond)
		}
		return outcome{ok: true}
	}
	ph := phase{workers: 1, before: func() { laps++ }}
	p := &phaseResult{ops: lap}
	ph.lap(p, false, stub)
	ph.run(p, 3, stub)
	if laps != 4 || p.attempted != 4*len(lap) || len(p.lat) != 3 {
		t.Fatalf("%d laps begun, %d ops attempted, %d laps sampled; want 4, %d, 3", laps, p.attempted, len(p.lat), 4*len(lap))
	}
	best := p.positions(opQuery)
	if got := best[len(best)-1]; got < 5*time.Millisecond || got > 15*time.Millisecond {
		t.Errorf("slowest position's fastest replay took %v, want the 5 ms of the position that is slow in every replay", got)
	}
	if got := best[len(best)-2]; got > 5*time.Millisecond {
		t.Errorf("second slowest position reads %v: the stall of one replay in three was not dropped", got)
	}
}
