package obs

import (
	"math"
	"strconv"
	"sync/atomic"
)

// DefBuckets are the default latency buckets (seconds): 50µs to 10s in a
// coarse exponential ladder. The low end sits below the live index's idle
// query latency so cache hits and pruned queries still resolve to a
// bucket, the high end past any sane HTTP deadline.
var DefBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed, sorted buckets. Observe is
// lock-free, allocation-free and safe for concurrent use; the Prometheus
// cumulative export reads the same atomics. The zero value is unusable —
// histograms come from Registry.Histogram.
type Histogram struct {
	bounds []float64 // sorted upper bounds; the +Inf bucket is implicit
	les    []string  // pre-rendered `le="..."` label fragments, + the +Inf one
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
		les:    make([]string, len(bounds)+1),
	}
	for i, ub := range h.bounds {
		h.les[i] = `le="` + strconv.FormatFloat(ub, 'g', -1, 64) + `"`
	}
	h.les[len(bounds)] = `le="+Inf"`
	return h
}

// Observe records one value (in the bucket unit, seconds for latency).
func (h *Histogram) Observe(v float64) {
	// Linear scan: the ladders here are short (≤ ~20 bounds) and latency
	// observations cluster in the low buckets, so this beats binary search
	// in practice and keeps the path branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// appendText appends the Prometheus cumulative-bucket rendering.
func (h *Histogram) appendText(b []byte, name, labels string) []byte {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		b = appendSeries(b, name, "_bucket", labels, h.les[i])
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	b = appendSeries(b, name, "_sum", labels, "")
	b = strconv.AppendFloat(b, h.Sum(), 'g', -1, 64)
	b = append(b, '\n')
	b = appendSeries(b, name, "_count", labels, "")
	b = strconv.AppendUint(b, h.Count(), 10)
	b = append(b, '\n')
	return b
}
