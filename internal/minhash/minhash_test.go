package minhash

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"lshensemble/internal/xrand"
)

func TestMulAddMod61Small(t *testing.T) {
	cases := []struct{ a, v, b, want uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1, 1, 1, 2},
		{2, 3, 4, 10},
		{MersennePrime - 1, 1, 0, MersennePrime - 1},
		{MersennePrime - 1, 1, 1, 0},
		{MersennePrime - 1, 2, 0, MersennePrime - 2},
	}
	for _, c := range cases {
		if got := mulAddMod61(c.a, c.v, c.b); got != c.want {
			t.Errorf("mulAddMod61(%d,%d,%d) = %d, want %d", c.a, c.v, c.b, got, c.want)
		}
	}
}

func TestMulAddMod61MatchesBigArithmetic(t *testing.T) {
	// Property: result agrees with the definition computed via 128-bit
	// arithmetic emulated with math/big-free modular steps.
	f := func(a, v, b uint64) bool {
		a %= MersennePrime
		v %= MersennePrime
		b %= MersennePrime
		got := mulAddMod61(a, v, b)
		// Compute (a*v + b) mod p by splitting v into 30-bit halves:
		// a*v = a*vHi*2^31 + a*vLo, each term < 2^92 — still too big, so
		// reduce step by step with 61+31 < 92... use double-and-add instead.
		want := uint64(0)
		x := a
		y := v
		for y > 0 {
			if y&1 == 1 {
				want = addMod(want, x)
			}
			x = addMod(x, x)
			y >>= 1
		}
		want = addMod(want, b)
		return got == want && got < MersennePrime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func addMod(a, b uint64) uint64 {
	s := a + b // a,b < 2^61 so no overflow
	if s >= MersennePrime {
		s -= MersennePrime
	}
	return s
}

func TestHashBytesBelowPrime(t *testing.T) {
	f := func(v []byte) bool {
		return HashBytes(v) < MersennePrime
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashStringMatchesHashBytes(t *testing.T) {
	f := func(s string) bool {
		return HashString(s) == HashBytes([]byte(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHasherDeterministic(t *testing.T) {
	h1 := NewHasher(64, 42)
	h2 := NewHasher(64, 42)
	s1 := h1.SketchStrings([]string{"a", "b", "c"})
	s2 := h2.SketchStrings([]string{"c", "a", "b"}) // order must not matter
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("slot %d differs: %d vs %d", i, s1[i], s2[i])
		}
	}
}

func TestEmptySignature(t *testing.T) {
	h := NewHasher(16, 1)
	s := h.NewSignature()
	if !s.IsEmpty() {
		t.Fatal("fresh signature should be empty")
	}
	if got := s.Cardinality(); got != 0 {
		t.Fatalf("empty cardinality = %v, want 0", got)
	}
	h.PushString(s, "x")
	if s.IsEmpty() {
		t.Fatal("signature with one value should not be empty")
	}
}

func TestJaccardIdentical(t *testing.T) {
	h := NewHasher(128, 7)
	s := h.SketchStrings([]string{"a", "b", "c", "d"})
	if got := s.Jaccard(s); got != 1.0 {
		t.Fatalf("self Jaccard = %v, want 1", got)
	}
}

func TestJaccardDisjoint(t *testing.T) {
	h := NewHasher(256, 7)
	a := h.SketchStrings([]string{"a1", "a2", "a3", "a4", "a5"})
	b := h.SketchStrings([]string{"b1", "b2", "b3", "b4", "b5"})
	if got := a.Jaccard(b); got > 0.05 {
		t.Fatalf("disjoint Jaccard = %v, want ~0", got)
	}
}

// TestJaccardEstimateAccuracy checks Broder's identity: the expected
// fraction of colliding slots equals the true Jaccard similarity.
func TestJaccardEstimateAccuracy(t *testing.T) {
	h := NewHasher(512, 99)
	for _, tc := range []struct {
		shared, onlyA, onlyB int
	}{
		{50, 50, 50},   // J = 50/150 = 0.333
		{90, 10, 0},    // J = 0.9
		{10, 90, 900},  // J = 0.01
		{100, 0, 0},    // J = 1
		{25, 25, 1000}, // J ≈ 0.0238
	} {
		a := h.NewSignature()
		b := h.NewSignature()
		for i := 0; i < tc.shared; i++ {
			v := fmt.Sprintf("shared-%d", i)
			h.PushString(a, v)
			h.PushString(b, v)
		}
		for i := 0; i < tc.onlyA; i++ {
			h.PushString(a, fmt.Sprintf("a-%d", i))
		}
		for i := 0; i < tc.onlyB; i++ {
			h.PushString(b, fmt.Sprintf("b-%d", i))
		}
		truth := float64(tc.shared) / float64(tc.shared+tc.onlyA+tc.onlyB)
		got := a.Jaccard(b)
		// 512 hashes → stderr = sqrt(J(1-J)/512) <= 0.0221; allow 4 sigma.
		if math.Abs(got-truth) > 4*math.Sqrt(truth*(1-truth)/512)+0.01 {
			t.Errorf("case %+v: Jaccard estimate %v, truth %v", tc, got, truth)
		}
	}
}

func TestCardinalityEstimate(t *testing.T) {
	h := NewHasher(512, 3)
	for _, n := range []int{1, 10, 100, 1000, 20000} {
		sig := h.NewSignature()
		for i := 0; i < n; i++ {
			h.PushHashed(sig, HashUint64(uint64(i)+1e9))
		}
		got := sig.Cardinality()
		// Relative error of the estimator is ~1/sqrt(m) ≈ 4.4%; allow 20%.
		if math.Abs(got-float64(n)) > 0.2*float64(n)+2 {
			t.Errorf("Cardinality for n=%d: got %v", n, got)
		}
	}
}

func TestMergeIsUnion(t *testing.T) {
	h := NewHasher(128, 5)
	a := h.SketchStrings([]string{"x", "y"})
	b := h.SketchStrings([]string{"y", "z"})
	u := h.SketchStrings([]string{"x", "y", "z"})
	a.Merge(b)
	for i := range a {
		if a[i] != u[i] {
			t.Fatalf("merge != union sketch at slot %d", i)
		}
	}
}

func TestMergeProperty(t *testing.T) {
	// Property: sketch(A ∪ B) == merge(sketch(A), sketch(B)) for random sets.
	h := NewHasher(64, 77)
	f := func(av, bv []uint64) bool {
		a := h.NewSignature()
		b := h.NewSignature()
		u := h.NewSignature()
		for _, v := range av {
			hv := HashUint64(v)
			h.PushHashed(a, hv)
			h.PushHashed(u, hv)
		}
		for _, v := range bv {
			hv := HashUint64(v)
			h.PushHashed(b, hv)
			h.PushHashed(u, hv)
		}
		m := a.Clone()
		m.Merge(b)
		for i := range m {
			if m[i] != u[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestContainmentEstimate(t *testing.T) {
	h := NewHasher(512, 123)
	// Q of size 100 fully contained in X of size 1000.
	q := h.NewSignature()
	x := h.NewSignature()
	for i := 0; i < 1000; i++ {
		hv := HashUint64(uint64(i))
		h.PushHashed(x, hv)
		if i < 100 {
			h.PushHashed(q, hv)
		}
	}
	got := q.Containment(x, 100, 1000)
	if got < 0.8 || got > 1.0 {
		t.Fatalf("containment estimate %v, want ~1", got)
	}
}

func TestNewHasherPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHasher(0) did not panic")
		}
	}()
	NewHasher(0, 1)
}

func TestJaccardPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Jaccard did not panic")
		}
	}()
	Signature{1}.Jaccard(Signature{1, 2})
}

func TestPermutationsDistinct(t *testing.T) {
	// Different slots should apply different permutations: hashing one value
	// should rarely give equal slot values.
	h := NewHasher(256, 55)
	s := h.NewSignature()
	h.PushHashed(s, HashUint64(42))
	seen := map[uint64]int{}
	for _, v := range s {
		seen[v]++
	}
	if len(seen) < 250 {
		t.Fatalf("only %d distinct slot values out of 256", len(seen))
	}
}

func TestHashUint64Distribution(t *testing.T) {
	// Mean of normalized hashes should be ~0.5.
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(HashUint64(uint64(i))) / float64(MersennePrime)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("HashUint64 mean %v, want ~0.5", mean)
	}
}

var sinkSig Signature

func BenchmarkPush(b *testing.B) {
	h := NewHasher(256, 1)
	sig := h.NewSignature()
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.PushHashed(sig, rng.Uint64()%MersennePrime)
	}
	sinkSig = sig
}

func BenchmarkJaccard(b *testing.B) {
	h := NewHasher(256, 1)
	s1 := h.SketchStrings([]string{"a", "b", "c"})
	s2 := h.SketchStrings([]string{"b", "c", "d"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s1.Jaccard(s2)
	}
}

// TestSketchDistinctMatchesMapDedup: on both sides of sortDedupMax, with
// duplicates, SketchDistinct gives the signature and the distinct count of
// a map dedup in first-seen order, and leaves the distinct values at the
// front of its input. The last case, 10 000 hashes over about 8 000
// distinct values, takes the map branch well past 2 048 distinct values.
func TestSketchDistinctMatchesMapDedup(t *testing.T) {
	h := NewHasher(64, 3)
	rng := xrand.New(9)
	cases := [][2]int{ // n hashes drawn from span values
		{0, 1}, {1, 1}, {2, 2}, {76, 39},
		{sortDedupMax - 1, sortDedupMax / 2}, {sortDedupMax, sortDedupMax/2 + 1},
		{sortDedupMax + 1, sortDedupMax/2 + 1}, {3 * sortDedupMax, 3*sortDedupMax/2 + 1},
		{10000, 22000},
	}
	for _, c := range cases {
		n, span := c[0], c[1]
		hvs := make([]uint64, n)
		for i := range hvs {
			hvs[i] = HashUint64(rng.Uint64() % uint64(span))
		}
		seen := make(map[uint64]bool)
		var distinct []uint64
		for _, hv := range hvs {
			if !seen[hv] {
				seen[hv] = true
				distinct = append(distinct, hv)
			}
		}
		want := h.Sketch(distinct)
		got, size := SketchDistinct(h, hvs)
		if size != len(distinct) {
			t.Fatalf("n=%d: %d distinct, want %d", n, size, len(distinct))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: signature differs from the map dedup's", n)
		}
		front := slices.Clone(hvs[:size])
		slices.Sort(front)
		slices.Sort(distinct)
		if !slices.Equal(front, distinct) {
			t.Fatalf("n=%d: the front of the input is not the distinct values", n)
		}
	}
}
