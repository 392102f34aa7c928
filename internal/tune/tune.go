// Package tune implements the analytical machinery of LSH Ensemble's
// Section 5: containment ⇄ Jaccard threshold conversion (Eq. 6–7), the
// effective containment threshold (Prop. 1), the candidate probability of a
// dynamically configured MinHash LSH (Eq. 22), its false-positive and
// false-negative areas (Eq. 23–24), and the (b, r) optimizer that minimizes
// FP + FN subject to b·r ≤ m (Eq. 25–26).
//
// The FP/FN integrals have no closed form, so they are evaluated with
// composite Simpson quadrature, and optimization is an exhaustive scan of
// the (b ≤ bMax, r ≤ rMax) grid. The optimum depends on nothing but the
// ratio x/q, the threshold t* and the grid, so it is served from ONE table
// per grid for the whole process (ForGrid): every index, segment and buffer
// scan built over the same (bMax, rMax) shares it, and an index created by a
// seal, merge or boot starts with whatever its predecessors already filled
// in. A cell covers one quantized (log2(x/q), t*) bucket and holds the
// optimum at the bucket's own centre — a pure function of the cell's
// position, so answers do not depend on which query touched the cell first.
// Cells fill lazily and are read and written with single atomic operations;
// no lock is taken on the query path.
package tune

import (
	"math"
	"sync"
	"sync/atomic"
)

// ContainmentToJaccard converts a containment score t = |Q∩X|/|Q| to the
// Jaccard similarity s = |Q∩X|/|Q∪X| given the domain sizes x = |X| and
// q = |Q| (paper Eq. 6, left). Both sizes must be positive.
func ContainmentToJaccard(t, x, q float64) float64 {
	return t / (x/q + 1 - t)
}

// ConservativeJaccardThreshold is the Jaccard similarity threshold
// s* = sˆu,q(t*) obtained by substituting the partition's upper size bound u
// for the (unknown) domain size x (paper Eq. 7). Because sˆx,q(t) decreases
// in x, using u ≥ x guarantees s* ≤ sˆx,q(t*): filtering by s* introduces no
// new false negatives.
func ConservativeJaccardThreshold(tStar, u, q float64) float64 {
	return ContainmentToJaccard(tStar, u, q)
}

// EffectiveContainmentThreshold is t_x, the containment score at which a
// domain of size x passes the conservative Jaccard filter built with upper
// bound u (paper Prop. 1): t_x = (x+q)·t*/(u+q). Domains with true
// containment in [t_x, t*) are the conversion's false positives.
func EffectiveContainmentThreshold(tStar, x, q, u float64) float64 {
	return (x + q) * tStar / (u + q)
}

// CandidateProbability is P(t | x, q, b, r): the probability that a domain
// of size x with containment t against a query of size q becomes an LSH
// candidate under b bands of r hash values (paper Eq. 22).
func CandidateProbability(t, x, q float64, b, r int) float64 {
	if q <= 0 || x <= 0 {
		return 0
	}
	s := ContainmentToJaccard(t, x, q)
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 1
	}
	return 1 - math.Pow(1-math.Pow(s, float64(r)), float64(b))
}

// simpson integrates f over [a, b] with composite Simpson quadrature using
// n (even, >= 2) intervals.
func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if b <= a {
		return 0
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

// quadIntervals is the number of Simpson intervals used for the FP/FN
// integrals. 64 keeps the absolute error far below the grid-search
// resolution while staying cheap.
const quadIntervals = 64

// FalsePositiveArea is FP(x, q, t*, b, r): the integral of the candidate
// probability over containment values below the threshold (paper Eq. 23).
// The upper limit is min(t*, x/q) because containment cannot exceed x/q.
func FalsePositiveArea(x, q, tStar float64, b, r int) float64 {
	return simpson(func(t float64) float64 {
		return CandidateProbability(t, x, q, b, r)
	}, 0, math.Min(tStar, x/q), quadIntervals)
}

// fnWidthFloor keeps the false-negative integration interval from
// degenerating. At t* = 1 the paper's Eq. 24 interval [t*, 1] has zero
// width, so FN would be identically zero and the optimizer would pick the
// strictest possible (b, r), rejecting even exactly-qualifying domains
// (the point mass at t = 1 carries no area). Widening the interval to at
// least this floor restores recall pressure at extreme thresholds while
// leaving moderate thresholds untouched.
const fnWidthFloor = 0.05

// fnInterval is the integration interval of the false-negative area for
// ratio = x/q: [t*, min(1, x/q)] (paper Eq. 24), widened downwards to at
// least fnWidthFloor, and empty (hi ≤ lo) when x/q < t* — no domain in that
// regime can qualify.
func fnInterval(ratio, tStar float64) (lo, hi float64) {
	if ratio < tStar {
		return 0, 0
	}
	hi = math.Min(1, ratio)
	lo = tStar
	if hi-lo < fnWidthFloor {
		lo = math.Max(0, hi-fnWidthFloor)
	}
	return lo, hi
}

// FalseNegativeArea is FN(x, q, t*, b, r): the integral of the miss
// probability over the containment values above the threshold (fnInterval).
func FalseNegativeArea(x, q, tStar float64, b, r int) float64 {
	lo, hi := fnInterval(x/q, tStar)
	return simpson(func(t float64) float64 {
		return 1 - CandidateProbability(t, x, q, b, r)
	}, lo, hi, quadIntervals)
}

// Params is a concrete banding configuration chosen by the optimizer.
type Params struct {
	B int // number of bands (trees probed)
	R int // hash values per band (prefix depth)
}

// The table's key space. A ratio bucket is ⌊log2(x/q)·ratioStep⌉ clamped to
// [minRatioBucket, maxRatioBucket] (x/q from 2^-8 to 2^32 — a query 256×
// larger than the partition bound, or a bound 4·10^9× larger than the
// query; anything beyond shares the edge bucket). A threshold bucket is
// ⌊t*·tStep⌉ clamped to [0, tStep]. That is 641 × 201 = 128 841 cells (1 MB)
// per grid at most, however many distinct queries arrive — which is why the
// table needs no eviction. Rows (5 KB) are allocated on the first use of
// their threshold bucket, and serving workloads use a handful of thresholds.
const (
	ratioStep      = 16
	minRatioBucket = -8 * ratioStep
	maxRatioBucket = 32 * ratioStep
	ratioBuckets   = maxRatioBucket - minRatioBucket + 1
	tStep          = 200
	tBuckets       = tStep + 1
)

// Table serves the (b, r) minimizing FN + FP over the grid b ∈ [1, bMax],
// r ∈ [1, rMax] (so b·r ≤ bMax·rMax ≤ m, satisfying the paper's
// constraint). It is safe for concurrent use.
type Table struct {
	bMax, rMax int
	rows       [tBuckets]atomic.Pointer[tableRow]
}

// tableRow holds one threshold bucket's cells as B<<32 | R; zero marks a
// cell not searched yet (a searched cell has B ≥ 1).
type tableRow [ratioBuckets]atomic.Uint64

var (
	gridsMu sync.Mutex
	grids   = map[[2]int]*Table{}
)

// ForGrid returns the process-wide table of the (bMax, rMax) grid: every
// call with the same bounds returns the same *Table. Constructors call it
// once per index; the query path only ever touches the returned table.
// Tables are never dropped: a process holds one per distinct grid it has
// built or loaded an index with, which is one for a serving daemon.
func ForGrid(bMax, rMax int) *Table {
	if bMax <= 0 || rMax <= 0 {
		panic("tune: grid bounds must be positive")
	}
	gridsMu.Lock()
	defer gridsMu.Unlock()
	g := [2]int{bMax, rMax}
	t := grids[g]
	if t == nil {
		t = &Table{bMax: bMax, rMax: rMax}
		grids[g] = t
	}
	return t
}

// clampBucket rounds v and confines it to [lo, hi]. NaN and -Inf (a
// non-positive size, a NaN threshold) land on lo instead of indexing out of
// the table.
func clampBucket(v float64, lo, hi int) int {
	v = math.Round(v)
	if !(v >= float64(lo)) {
		return lo
	}
	if v > float64(hi) {
		return hi
	}
	return int(v)
}

// Optimize returns the (b, r) minimizing FN + FP on the grid (paper Eq. 26,
// with x set to the partition upper bound by the caller) at the centre of
// the bucket (x/q, t*) falls in: ratio 2^(k/16), threshold j/200. Ties
// prefer smaller b (fewer probes) then larger r (cheaper scans). x, q
// should be positive and t* in [0, 1]; anything else is clamped into the
// nearest edge bucket.
func (o *Table) Optimize(x, q, tStar float64) Params {
	k := clampBucket(math.Log2(x/q)*ratioStep, minRatioBucket, maxRatioBucket)
	j := clampBucket(tStar*tStep, 0, tStep)
	row := o.rows[j].Load()
	if row == nil {
		o.rows[j].CompareAndSwap(nil, new(tableRow))
		row = o.rows[j].Load()
	}
	cell := &row[k-minRatioBucket]
	if v := cell.Load(); v != 0 {
		return Params{B: int(v >> 32), R: int(uint32(v))}
	}
	// Racing first touches of one cell search the same centre and store the
	// same value, so a plain store needs no arbitration.
	p := o.search(math.Exp2(float64(k)/ratioStep), 1, float64(j)/tStep)
	cell.Store(uint64(p.B)<<32 | uint64(p.R))
	return p
}

// intervalWidths returns the integration interval widths of the FP and FN
// areas for the given (x, q, t*). Zero-width intervals are reported as 0.
func intervalWidths(x, q, tStar float64) (wFP, wFN float64) {
	ratio := x / q
	wFP = tStar
	if ratio < wFP {
		wFP = ratio
	}
	if wFP < 0 {
		wFP = 0
	}
	if ratio >= tStar {
		upper := 1.0
		if ratio < 1 {
			upper = ratio
		}
		wFN = upper - tStar
		if wFN < fnWidthFloor {
			wFN = fnWidthFloor
			if wFN > upper {
				wFN = upper
			}
		}
	}
	return wFP, wFN
}

// Cost is the tuning objective: the average false-positive probability over
// the sub-threshold containment interval plus the average false-negative
// probability over the super-threshold interval. Normalizing each area by
// its interval width keeps the two error terms commensurate at extreme
// thresholds, where the paper's raw-area objective (Eq. 25) degenerates
// (at t* = 1 the FN interval has zero width, so raw areas would always
// prefer the strictest configuration and reject even exact matches). For
// moderate thresholds the intervals have comparable widths and the argmin
// matches the raw-area objective.
func Cost(x, q, tStar float64, b, r int) float64 {
	wFP, wFN := intervalWidths(x, q, tStar)
	cost := 0.0
	if wFP > 0 {
		cost += FalsePositiveArea(x, q, tStar, b, r) / wFP
	}
	if wFN > 0 {
		cost += FalseNegativeArea(x, q, tStar, b, r) / wFN
	}
	return cost
}

func (o *Table) search(x, q, tStar float64) Params {
	fp, fn := o.gridAreas(x, q, tStar)
	wFP, wFN := intervalWidths(x, q, tStar)
	best := Params{B: 1, R: 1}
	bestCost := math.Inf(1)
	for r := 1; r <= o.rMax; r++ {
		for b := 1; b <= o.bMax; b++ {
			cost := 0.0
			if wFP > 0 {
				cost += fp[r-1][b-1] / wFP
			}
			if wFN > 0 {
				cost += fn[r-1][b-1] / wFN
			}
			if cost < bestCost-1e-12 {
				bestCost = cost
				best = Params{B: b, R: r}
			}
		}
	}
	return best
}

// gridAreas evaluates the FP and FN areas for every (b, r) on the grid in
// one pass. A naive sweep would run bMax·rMax independent quadratures
// (each full of math.Pow calls); instead the quadrature nodes are shared
// and the powers built incrementally — s^r by one multiply per r step,
// (1−s^r)^b by one multiply per b step — which makes a cold optimization
// ~50× cheaper. Results match FalsePositiveArea/FalseNegativeArea to
// quadrature precision (asserted by tests).
func (o *Table) gridAreas(x, q, tStar float64) (fp, fn [][]float64) {
	fp = make([][]float64, o.rMax)
	fn = make([][]float64, o.rMax)
	for r := range fp {
		fp[r] = make([]float64, o.bMax)
		fn[r] = make([]float64, o.bMax)
	}
	ratio := x / q

	// accumulate adds Simpson-weighted Σ w_i · (1 − s_i^r)^b over the nodes
	// of [lo, hi] into out[r-1][b-1]. The integral of P = width − that sum
	// (for FP), and the integral of 1−P is exactly that sum (for FN).
	accumulate := func(lo, hi float64, out [][]float64, subtractFromWidth bool) {
		if hi <= lo {
			return
		}
		n := quadIntervals
		h := (hi - lo) / float64(n)
		nodes := make([]float64, n+1)   // s at each node
		weights := make([]float64, n+1) // Simpson weights × h/3
		for i := 0; i <= n; i++ {
			t := lo + float64(i)*h
			s := ContainmentToJaccard(t, x, q)
			if s < 0 {
				s = 0
			}
			if s > 1 {
				s = 1
			}
			nodes[i] = s
			w := 2.0
			switch {
			case i == 0 || i == n:
				w = 1
			case i%2 == 1:
				w = 4
			}
			weights[i] = w * h / 3
		}
		width := hi - lo
		sr := make([]float64, n+1) // s^r, built incrementally
		g := make([]float64, n+1)  // (1 − s^r)^b, built incrementally
		for i := range sr {
			sr[i] = 1
		}
		for r := 1; r <= o.rMax; r++ {
			for i := range sr {
				sr[i] *= nodes[i]
				g[i] = 1
			}
			for b := 1; b <= o.bMax; b++ {
				sum := 0.0
				for i := range g {
					g[i] *= 1 - sr[i]
					sum += weights[i] * g[i]
				}
				if subtractFromWidth {
					out[r-1][b-1] += width - sum // ∫ P dt
				} else {
					out[r-1][b-1] += sum // ∫ (1 − P) dt
				}
			}
		}
	}

	accumulate(0, math.Min(tStar, ratio), fp, true) // FP: ∫ P below the threshold
	fnLo, fnHi := fnInterval(ratio, tStar)
	accumulate(fnLo, fnHi, fn, false) // FN: ∫ (1 − P) above it
	return fp, fn
}
