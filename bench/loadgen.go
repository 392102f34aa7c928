package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is one operation type of a traffic mix.
type opKind uint8

const (
	opQuery opKind = iota
	opTopK
	opBatch
	numKinds
)

// op is one generated request: its kind and which pre-built input it sends
// (a query-pool index or a batch index).
type op struct {
	kind opKind
	arg  int32
}

// outcome is what the target reported for one op. ok is false for a non-2xx
// answer, a transport error, or a wrong answer (own key missing).
type outcome struct {
	ok      bool
	partial bool
}

// A phase sends one lap, a fixed op sequence, time and again, and keeps every
// latency by (replay, position). The figures read off it are quantiles over
// the positions of one figure per position: its fastest replay.
//
// Why the fastest: on the reference VM the noise is one-sided and slow. A
// register-only loop repeats within 2 %, but anything that misses the cache —
// a pointer chase over 32 MB, SketchStrings' dedup map, a forest probe — runs
// 0–40 % slower for seconds or minutes at a time, in step with nothing the
// guest does: the neighbours' memory traffic. What a replay adds to a position
// is other people's work (or a collection, a background rebuild, two threads
// left on one CPU by the guest's scheduler for up to a second), never less than
// the request costs; so the fastest replay is the estimate of that cost, and
// the replays of every phase are spread over the whole run (see rounds in
// run.go) rather than packed into a slice of it. What it cannot see is what a
// lap does to itself, such as a compaction its own writes cause; the laps here
// are read-only.
type phase struct {
	// rate > 0 is an open loop: op i of a lap is due at the lap's start +
	// i/rate whatever the earlier ops did, and its latency is timed from that
	// due time, so a stall is charged to every op queued behind it. rate == 0
	// is a closed loop: each worker sends its next op when the previous one
	// completed, and latency is the call's own duration.
	rate    float64
	workers int // requests in flight never exceed this
	// before, when set, runs ahead of every lap, with no op in flight.
	before func()
}

// phaseResult holds the raw samples of one phase: every latency is a
// duration kept in a pre-sized slice, never a histogram bucket.
type phaseResult struct {
	ops         []op
	lat         [][]time.Duration // lat[replay][position]
	laps        []time.Duration   // wall time of each measured lap
	late        []time.Duration   // open loop: how long after its due time each op was sent
	attempted   int               // unmeasured laps included
	failed      int
	partials    int
	maxInFlight int
}

// lap sends res.ops once, calling do for every op. An unmeasured lap is sent
// and checked like any other but leaves no sample.
func (p phase) lap(res *phaseResult, measured bool, do func(worker int, o op) outcome) {
	if p.before != nil {
		p.before()
	}
	ops := res.ops
	var lat []time.Duration
	late := make([][]time.Duration, p.workers)
	if measured {
		lat = make([]time.Duration, len(ops))
		if p.rate > 0 {
			for w := range late {
				late[w] = make([]time.Duration, 0, len(ops))
			}
		}
	}
	interval := time.Duration(0)
	if p.rate > 0 {
		interval = time.Duration(float64(time.Second) / p.rate)
	}
	var next, failed, partials atomic.Int64
	var inFlight, maxInFlight atomic.Int32
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				from := time.Now()
				if p.rate > 0 {
					from = start.Add(time.Duration(i) * interval)
					sleepUntil(from)
					if measured {
						late[w] = append(late[w], time.Since(from))
					}
				}
				if cur := inFlight.Add(1); cur > maxInFlight.Load() {
					maxInFlight.Store(cur) // racy max is fine: the bound is the worker count
				}
				out := do(w, ops[i])
				inFlight.Add(-1)
				if measured {
					lat[i] = time.Since(from)
				}
				if !out.ok {
					failed.Add(1)
				}
				if out.partial {
					partials.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	res.attempted += len(ops)
	res.failed += int(failed.Load())
	res.partials += int(partials.Load())
	res.maxInFlight = max(res.maxInFlight, int(maxInFlight.Load()))
	if measured {
		res.laps = append(res.laps, time.Since(start))
		res.lat = append(res.lat, lat)
		for _, l := range late {
			res.late = append(res.late, l...)
		}
	}
}

// run sends n measured laps.
func (p phase) run(res *phaseResult, n int, do func(worker int, o op) outcome) {
	for i := 0; i < n; i++ {
		p.lap(res, true, do)
	}
}

// perPosition returns one figure for every position that keep admits (all of
// them when it is nil), sorted: the smallest of lat[replay][position] over the
// replays. It is nil when there is no replay.
func perPosition(lat [][]time.Duration, keep func(i int) bool) []time.Duration {
	if len(lat) == 0 {
		return nil
	}
	n := len(lat[0])
	for _, l := range lat {
		n = min(n, len(l))
	}
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if keep != nil && !keep(i) {
			continue
		}
		fig := lat[0][i]
		for _, l := range lat[1:] {
			fig = min(fig, l[i])
		}
		out = append(out, fig)
	}
	slices.Sort(out)
	return out
}

// positions is the figure of every position of the lap that holds an op of
// kind k, sorted.
func (r *phaseResult) positions(k opKind) []time.Duration {
	return perPosition(r.lat, func(i int) bool { return r.ops[i].kind == k })
}

// latency reads the q-quantile over the lap's positions of kind k.
func (r *phaseResult) latency(k opKind, q float64) time.Duration {
	return quantile(r.positions(k), q)
}

// lateness reads the q-quantile of how late the open loop sent its ops.
func (r *phaseResult) lateness(q float64) time.Duration {
	slices.Sort(r.late)
	return quantile(r.late, q)
}

// opsPerSecond is the lap's length over the fastest lap's time.
func (r *phaseResult) opsPerSecond() float64 {
	if len(r.laps) == 0 {
		return 0
	}
	return float64(len(r.ops)) / slices.Min(r.laps).Seconds()
}

// quantile reads the q-quantile of sorted raw samples (nearest rank). An
// empty sample reads 0, which the report rejects for an end-to-end metric.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat is the median of a few repeated measurements.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
