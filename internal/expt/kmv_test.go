package expt

import (
	"math"
	"testing"

	"lshensemble/internal/minhash"
)

// kmvOver sketches the integers [lo, hi) — the ground-truth sets the
// closed-form checks compare against.
func kmvOver(k int, lo, hi uint64) *KMV {
	s := NewKMV(k)
	for v := lo; v < hi; v++ {
		s.PushUint64(v)
	}
	return s
}

// TestKMVExactBelowK: a sketch that never filled holds the complete distinct
// hash set, so every estimator is exact.
func TestKMVExactBelowK(t *testing.T) {
	a := kmvOver(256, 0, 100)  // {0..99}
	b := kmvOver(256, 50, 150) // {50..149}, overlap 50
	if got := a.Cardinality(); got != 100 {
		t.Fatalf("Cardinality = %v, want exactly 100", got)
	}
	if got := a.Intersection(b); got != 50 {
		t.Fatalf("Intersection = %v, want exactly 50", got)
	}
	if got := a.Containment(b); got != 0.5 {
		t.Fatalf("Containment = %v, want exactly 0.5", got)
	}
	if got := b.Containment(a); got != 0.5 {
		t.Fatalf("reverse Containment = %v, want exactly 0.5", got)
	}
}

// TestKMVDuplicatesIgnored: pushing a value twice must not change anything —
// the sketch is over distinct values.
func TestKMVDuplicatesIgnored(t *testing.T) {
	s := NewKMV(64)
	for i := 0; i < 10; i++ {
		s.PushUint64(7)
		s.PushHashed(minhash.HashString("x"))
	}
	if n := len(s.Values()); n != 2 {
		t.Fatalf("%d values kept after duplicate pushes, want 2", n)
	}
	if s.Cardinality() != 2 {
		t.Fatalf("Cardinality = %v, want exactly 2", s.Cardinality())
	}
}

// TestKMVCardinalityEstimate: the (k−1)/U(k) estimator on uniform hashed
// data must land within a few standard errors (σ ≈ n/√(k−2)).
func TestKMVCardinalityEstimate(t *testing.T) {
	for _, tc := range []struct {
		k, n int
	}{
		{128, 10000},
		{256, 10000},
		{512, 100000},
	} {
		s := kmvOver(tc.k, 0, uint64(tc.n))
		got := s.Cardinality()
		tol := 4 * float64(tc.n) / math.Sqrt(float64(tc.k-2))
		if math.Abs(got-float64(tc.n)) > tol {
			t.Errorf("k=%d n=%d: Cardinality = %.0f, want %d ± %.0f", tc.k, tc.n, got, tc.n, tol)
		}
	}
}

// TestKMVContainmentEstimate sweeps true containment levels and checks the
// asymmetric estimator against ground truth on overlapping integer ranges.
func TestKMVContainmentEstimate(t *testing.T) {
	const k, n = 512, 20000
	for _, trueT := range []float64{0.0, 0.25, 0.5, 0.75, 1.0} {
		overlap := uint64(trueT * n)
		q := kmvOver(k, 0, n)
		x := kmvOver(k, n-overlap, 2*n-overlap) // |Q∩X| = overlap, |X| = n
		got := q.Containment(x)
		// ρ is a hypergeometric proportion over k draws; 4σ with σ ≈ 1/√k
		// plus the union-cardinality noise comfortably bounds it.
		tol := 4 / math.Sqrt(k)
		if math.Abs(got-trueT) > tol+0.02 {
			t.Errorf("true containment %.2f: estimate %.3f (tol %.3f)", trueT, got, tol+0.02)
		}
	}
}
