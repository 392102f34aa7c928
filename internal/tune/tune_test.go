package tune

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"lshensemble/internal/xrand"
)

func TestConversionInverse(t *testing.T) {
	// Property: the two sides of paper Eq. 6 are mutual inverses for fixed
	// x, q — ContainmentToJaccard is the left one, undone here by the right.
	f := func(tRaw, xRaw, qRaw uint16) bool {
		tc := float64(tRaw%1000)/1000.0 + 0.0005
		x := float64(xRaw%10000) + 1
		q := float64(qRaw%10000) + 1
		// containment cannot exceed x/q
		if max := x / q; tc > max {
			tc = max * 0.99
		}
		s := ContainmentToJaccard(tc, x, q)
		back := (x/q + 1) * s / (1 + s)
		return math.Abs(back-tc) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConversionKnownValues(t *testing.T) {
	// From the paper's running example: Q={Ontario,Toronto} (q=2),
	// Locations has x=12, containment 1.0 → Jaccard = 2/12 ≈ 0.1667... no:
	// s = t/(x/q+1-t) = 1/(6+1-1) = 1/6.
	if got := ContainmentToJaccard(1.0, 12, 2); math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("ContainmentToJaccard(1,12,2) = %v, want 1/6", got)
	}
	// Provinces: x=3, q=2, t=0.5 → s = 0.5/(1.5+1-0.5) = 0.25.
	if got := ContainmentToJaccard(0.5, 3, 2); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("ContainmentToJaccard(0.5,3,2) = %v, want 0.25", got)
	}
}

func TestConversionMonotoneInX(t *testing.T) {
	// sˆx,q(t) decreases monotonically in x — the property that makes the
	// upper-bound substitution conservative (Section 5.1).
	for _, tc := range []float64{0.1, 0.5, 0.9} {
		prev := math.Inf(1)
		for x := 1.0; x <= 1e6; x *= 10 {
			s := ContainmentToJaccard(tc, x, 100)
			if s > prev+1e-15 {
				t.Fatalf("s not decreasing in x at t=%v x=%v", tc, x)
			}
			prev = s
		}
	}
}

func TestConservativeThresholdNoNewFalseNegatives(t *testing.T) {
	// Property: for any x ≤ u, s* = sˆu,q(t*) ≤ sˆx,q(t*). A domain whose
	// true containment meets t* has Jaccard ≥ sˆx,q(t*) ≥ s*, so a perfect
	// Jaccard filter at s* never rejects it.
	f := func(xRaw, uRaw, qRaw uint16, tRaw uint8) bool {
		x := float64(xRaw%5000) + 1
		u := x + float64(uRaw%5000)
		q := float64(qRaw%5000) + 1
		tStar := (float64(tRaw%100) + 1) / 100
		sStar := ConservativeJaccardThreshold(tStar, u, q)
		sExact := ContainmentToJaccard(tStar, x, q)
		return sStar <= sExact+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveThreshold(t *testing.T) {
	// Prop. 1: t_x = (x+q) t* / (u+q); with x = u it equals t*.
	if got := EffectiveContainmentThreshold(0.5, 10, 5, 10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("t_u = %v, want t* = 0.5", got)
	}
	// t_x below t* for x < u.
	if got := EffectiveContainmentThreshold(0.5, 4, 5, 10); got >= 0.5 {
		t.Fatalf("t_x = %v, want < 0.5", got)
	}
	// Figure 2 configuration: u=3, x=1, q=1, t*=0.5 → t_x = 2·0.5/4 = 0.25.
	if got := EffectiveContainmentThreshold(0.5, 1, 1, 3); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("fig2 t_x = %v, want 0.25", got)
	}
}

func TestCandidateProbabilityShape(t *testing.T) {
	// Figure 3 configuration: x=10, q=5, b=256, r=4, t*=0.5. P should be
	// monotone non-decreasing in t, ~0 at t=0, ~1 at t=1.
	prev := -1.0
	for i := 0; i <= 100; i++ {
		tc := float64(i) / 100
		p := CandidateProbability(tc, 10, 5, 256, 4)
		if p < prev-1e-12 {
			t.Fatalf("P not monotone at t=%v", tc)
		}
		if p < 0 || p > 1 {
			t.Fatalf("P out of [0,1] at t=%v: %v", tc, p)
		}
		prev = p
	}
	if p0 := CandidateProbability(0, 10, 5, 256, 4); p0 != 0 {
		t.Fatalf("P(0) = %v, want 0", p0)
	}
	if p1 := CandidateProbability(1, 10, 5, 256, 4); p1 < 0.99 {
		t.Fatalf("P(1) = %v, want ~1", p1)
	}
}

func TestCandidateProbabilityMoreBandsMoreCandidates(t *testing.T) {
	// P increases with b (more probes) and decreases with r (stricter).
	for _, tc := range []float64{0.2, 0.5, 0.8} {
		if CandidateProbability(tc, 10, 5, 8, 4) > CandidateProbability(tc, 10, 5, 32, 4) {
			t.Fatalf("P should grow with b at t=%v", tc)
		}
		if CandidateProbability(tc, 10, 5, 16, 8) > CandidateProbability(tc, 10, 5, 16, 2) {
			t.Fatalf("P should shrink with r at t=%v", tc)
		}
	}
}

func TestSimpsonAgainstKnownIntegrals(t *testing.T) {
	if got := simpson(func(x float64) float64 { return x * x }, 0, 1, 64); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("∫x² = %v, want 1/3", got)
	}
	if got := simpson(math.Sin, 0, math.Pi, 64); math.Abs(got-2) > 1e-6 {
		t.Fatalf("∫sin = %v, want 2", got)
	}
	if got := simpson(math.Exp, 0, 0, 64); got != 0 {
		t.Fatalf("empty interval = %v, want 0", got)
	}
}

func TestAreasInRange(t *testing.T) {
	f := func(xRaw, qRaw uint16, tRaw, bRaw, rRaw uint8) bool {
		x := float64(xRaw%1000) + 1
		q := float64(qRaw%1000) + 1
		tStar := (float64(tRaw%99) + 1) / 100
		b := int(bRaw%32) + 1
		r := int(rRaw%8) + 1
		fp := FalsePositiveArea(x, q, tStar, b, r)
		fn := FalseNegativeArea(x, q, tStar, b, r)
		return fp >= 0 && fp <= 1.000001 && fn >= 0 && fn <= 1.000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFNZeroWhenRatioBelowThreshold(t *testing.T) {
	// A domain with x/q < t* can never qualify, so FN must be 0 (Eq. 24).
	if got := FalseNegativeArea(10, 100, 0.5, 16, 4); got != 0 {
		t.Fatalf("FN = %v, want 0 when x/q < t*", got)
	}
}

func TestFPRespectsRatioCap(t *testing.T) {
	// FP integrates only up to x/q when x/q < t*.
	small := FalsePositiveArea(10, 100, 0.9, 32, 1) // cap at 0.1
	big := FalsePositiveArea(200, 100, 0.9, 32, 1)  // cap at 0.9
	if small >= big {
		t.Fatalf("FP with tight ratio cap (%v) should be below uncapped (%v)", small, big)
	}
}

func TestExtremeConfigsTradeOff(t *testing.T) {
	// b=32, r=1 is extremely permissive → almost no FN, large FP.
	// b=1, r=8 is extremely strict → almost no FP, large FN.
	x, q, tStar := 100.0, 50.0, 0.5
	fpPerm := FalsePositiveArea(x, q, tStar, 32, 1)
	fnPerm := FalseNegativeArea(x, q, tStar, 32, 1)
	fpStrict := FalsePositiveArea(x, q, tStar, 1, 8)
	fnStrict := FalseNegativeArea(x, q, tStar, 1, 8)
	if !(fnPerm < fnStrict && fpPerm > fpStrict) {
		t.Fatalf("trade-off violated: perm fp=%v fn=%v strict fp=%v fn=%v",
			fpPerm, fnPerm, fpStrict, fnStrict)
	}
}

func TestOptimizerRespectsGrid(t *testing.T) {
	o := ForGrid(32, 8)
	rng := xrand.New(4)
	for i := 0; i < 50; i++ {
		x := float64(rng.Intn(100000) + 1)
		q := float64(rng.Intn(1000) + 1)
		tStar := (float64(rng.Intn(99)) + 1) / 100
		p := o.Optimize(x, q, tStar)
		if p.B < 1 || p.B > 32 || p.R < 1 || p.R > 8 {
			t.Fatalf("params %+v outside grid", p)
		}
	}
}

func TestOptimizerIsGridMinimum(t *testing.T) {
	o := ForGrid(16, 4)
	for _, tc := range []struct{ x, q, tStar float64 }{
		{100, 10, 0.5},
		{1000, 10, 0.9},
		{10, 10, 0.2},
		{50, 200, 0.1},
	} {
		p := o.search(tc.x, tc.q, tc.tStar)
		best := Cost(tc.x, tc.q, tc.tStar, p.B, p.R)
		for b := 1; b <= 16; b++ {
			for r := 1; r <= 4; r++ {
				c := Cost(tc.x, tc.q, tc.tStar, b, r)
				if c < best-1e-9 {
					t.Fatalf("config (%d,%d) cost %v beats chosen %+v cost %v for %+v",
						b, r, c, p, best, tc)
				}
			}
		}
	}
}

func TestOptimizerHigherThresholdStricter(t *testing.T) {
	// As t* grows, the optimizer should choose an (effectively) stricter
	// configuration: the candidate probability at a fixed low containment
	// should not increase.
	o := ForGrid(32, 8)
	x, q := 1000.0, 100.0
	pLow := o.Optimize(x, q, 0.1)
	pHigh := o.Optimize(x, q, 0.9)
	probeT := 0.05
	pl := CandidateProbability(probeT, x, q, pLow.B, pLow.R)
	ph := CandidateProbability(probeT, x, q, pHigh.B, pHigh.R)
	if ph > pl+1e-9 {
		t.Fatalf("t*=0.9 config %+v is more permissive than t*=0.1 config %+v (%v > %v)",
			pHigh, pLow, ph, pl)
	}
}

func TestGridAreasMatchReference(t *testing.T) {
	// The one-pass incremental grid evaluation must agree with the
	// reference per-config quadratures everywhere on the grid.
	o := ForGrid(16, 4)
	for _, tc := range []struct{ x, q, tStar float64 }{
		{100, 10, 0.5},
		{10, 100, 0.5}, // ratio < t*: FN empty
		{1000, 10, 1.0},
		{50, 50, 0.05},
	} {
		fp, fn := o.gridAreas(tc.x, tc.q, tc.tStar)
		for r := 1; r <= 4; r++ {
			for b := 1; b <= 16; b++ {
				wantFP := FalsePositiveArea(tc.x, tc.q, tc.tStar, b, r)
				wantFN := FalseNegativeArea(tc.x, tc.q, tc.tStar, b, r)
				if math.Abs(fp[r-1][b-1]-wantFP) > 1e-9 {
					t.Fatalf("%+v b=%d r=%d: grid FP %v, want %v", tc, b, r, fp[r-1][b-1], wantFP)
				}
				if math.Abs(fn[r-1][b-1]-wantFN) > 1e-9 {
					t.Fatalf("%+v b=%d r=%d: grid FN %v, want %v", tc, b, r, fn[r-1][b-1], wantFN)
				}
			}
		}
	}
}

func TestOptimizerExtremeThresholdKeepsRecall(t *testing.T) {
	// Regression: at t* = 1.0 the raw-area objective (Eq. 25) degenerates
	// (zero-width FN interval) and picks the strictest configuration,
	// losing fully-contained domains. The width-normalized Cost must keep
	// a configuration that retrieves a qualifying domain with decent
	// probability even when x > q.
	o := ForGrid(32, 8)
	for _, tc := range []struct{ x, q float64 }{{10, 3}, {100, 10}, {50, 50}} {
		p := o.Optimize(tc.x, tc.q, 1.0)
		prob := CandidateProbability(1.0, tc.x, tc.q, p.B, p.R)
		if prob < 0.5 {
			t.Fatalf("x=%v q=%v t*=1: chosen %+v retrieves exact matches with P=%v",
				tc.x, tc.q, p, prob)
		}
	}
}

func TestCostMatchesComponents(t *testing.T) {
	// Cost must equal the width-normalized sum of the two areas.
	x, q, tStar := 100.0, 40.0, 0.5
	wFP, wFN := intervalWidths(x, q, tStar)
	for _, p := range []Params{{1, 1}, {8, 2}, {32, 8}} {
		want := FalsePositiveArea(x, q, tStar, p.B, p.R)/wFP +
			FalseNegativeArea(x, q, tStar, p.B, p.R)/wFN
		if got := Cost(x, q, tStar, p.B, p.R); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Cost(%+v) = %v, want %v", p, got, want)
		}
	}
}

func TestIntervalWidths(t *testing.T) {
	// Moderate threshold, big domain: FP width = t*, FN width = 1 - t*.
	wFP, wFN := intervalWidths(100, 10, 0.4)
	if wFP != 0.4 || math.Abs(wFN-0.6) > 1e-12 {
		t.Fatalf("widths = %v, %v", wFP, wFN)
	}
	// x/q below threshold: no FN interval at all.
	wFP, wFN = intervalWidths(10, 100, 0.5)
	if math.Abs(wFP-0.1) > 1e-12 || wFN != 0 {
		t.Fatalf("capped widths = %v, %v", wFP, wFN)
	}
	// t* = 1: FN floor applies.
	_, wFN = intervalWidths(100, 10, 1.0)
	if wFN != fnWidthFloor {
		t.Fatalf("floored FN width = %v", wFN)
	}
}

func TestForGridSharesOneTablePerGrid(t *testing.T) {
	if ForGrid(32, 8) != ForGrid(32, 8) {
		t.Fatal("two requests for the same grid returned different tables")
	}
	if ForGrid(32, 8) == ForGrid(16, 8) || ForGrid(32, 8) == ForGrid(32, 4) {
		t.Fatal("distinct grids share a table")
	}
}

func TestOptimizeIsPureFunctionOfBucket(t *testing.T) {
	// Every point of a bucket gets the optimum of the bucket's centre, no
	// matter which point asked first.
	o := ForGrid(16, 4)
	for _, tc := range []struct{ x, q, tStar float64 }{
		{1000, 100, 0.5}, {1001, 100, 0.5}, {999, 100, 0.501}, {10, 50, 0.1}, {4096, 3, 0.95},
	} {
		k := math.Round(math.Log2(tc.x/tc.q) * ratioStep)
		j := math.Round(tc.tStar * tStep)
		want := o.search(math.Exp2(k/ratioStep), 1, j/tStep)
		if got := o.Optimize(tc.x, tc.q, tc.tStar); got != want {
			t.Fatalf("%+v: Optimize = %+v, bucket centre optimum = %+v", tc, got, want)
		}
	}
	if a, b := o.Optimize(1000, 100, 0.5), o.Optimize(1001, 100, 0.5); a != b {
		t.Fatalf("near-identical ratios disagree: %+v vs %+v", a, b)
	}
}

func TestOptimizeConcurrentFirstTouch(t *testing.T) {
	// Its own grid, so the cell is guaranteed cold however tests are ordered.
	o := ForGrid(31, 7)
	var wg sync.WaitGroup
	got := make([]Params, 8)
	start := make(chan struct{})
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = o.Optimize(777, 13, 0.35)
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if got[g] != got[0] || got[g].B < 1 {
			t.Fatalf("goroutine %d saw %+v, goroutine 0 saw %+v", g, got[g], got[0])
		}
	}
}

func TestOptimizeClampsOutOfRangeKeys(t *testing.T) {
	o := ForGrid(32, 8)
	inGrid := func(p Params) bool { return p.B >= 1 && p.B <= 32 && p.R >= 1 && p.R <= 8 }
	// q = 1<<62 against a one-value partition, t* = 0: far below the
	// smallest ratio bucket. It must share the edge cell, not mint a new one.
	low := o.Optimize(1, float64(1<<62), 0)
	if !inGrid(low) || low != o.Optimize(1, 1<<9, 0) {
		t.Fatalf("tiny ratio: %+v, edge bucket %+v", low, o.Optimize(1, 1<<9, 0))
	}
	high := o.Optimize(float64(1<<62), 1, 1)
	if !inGrid(high) || high != o.Optimize(1<<33, 1, 1) {
		t.Fatalf("huge ratio: %+v, edge bucket %+v", high, o.Optimize(1<<33, 1, 1))
	}
	for _, tc := range []struct{ x, q, tStar float64 }{
		{100, 10, -3}, {100, 10, 7}, {100, 10, math.NaN()}, {0, 10, 0.5}, {100, 0, 0.5}, {-1, 10, 0.5},
	} {
		if p := o.Optimize(tc.x, tc.q, tc.tStar); !inGrid(p) {
			t.Fatalf("%+v: params %+v outside grid", tc, p)
		}
	}
	if o.Optimize(100, 10, -3) != o.Optimize(100, 10, 0) || o.Optimize(100, 10, 7) != o.Optimize(100, 10, 1) {
		t.Fatal("out-of-range thresholds did not clamp to the edge buckets")
	}
}

func TestForGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ForGrid(0, 1) did not panic")
		}
	}()
	ForGrid(0, 1)
}

// BenchmarkOptimize is the ablation of the table: a hit (two atomic loads
// behind a log2) against the grid search a cell's first touch pays.
func BenchmarkOptimize(b *testing.B) {
	o := ForGrid(32, 8)
	b.Run("table-hit", func(b *testing.B) {
		o.Optimize(1000, 100, 0.5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Optimize(1000, 100, 0.5)
		}
	})
	b.Run("grid-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o.search(1000, 100, 0.5)
		}
	})
}
