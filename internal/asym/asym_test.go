package asym

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"lshensemble/internal/core"
	"lshensemble/internal/domain"
	"lshensemble/internal/minhash"
	"lshensemble/internal/tune"
	"lshensemble/internal/xrand"
)

func makeRecords(n, numHash int, maxSize int, seed uint64) ([]domain.Record, *minhash.Hasher) {
	rng := xrand.New(seed)
	h := minhash.NewHasher(numHash, 7)
	recs := make([]domain.Record, n)
	for i := range recs {
		size := rng.Pareto(2.0, 10, maxSize)
		hashed := make([]uint64, size)
		for j := 0; j < size; j++ {
			hashed[j] = minhash.HashUint64(uint64(j))
		}
		recs[i] = domain.Record{Key: fmt.Sprintf("a%03d", i), Size: size, Sig: h.Sketch(hashed)}
	}
	return recs, h
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil, 64, 4); err != core.ErrEmpty {
		t.Fatal("empty build accepted")
	}
}

func TestPadZeroIsIdentity(t *testing.T) {
	h := minhash.NewHasher(64, 1)
	sig := h.SketchStrings([]string{"a", "b"})
	out := Pad(sig, "k", 0)
	for i := range sig {
		if out[i] != sig[i] {
			t.Fatal("Pad with k=0 must be identity")
		}
	}
	// and must not alias the input
	out[0] = 12345
	if sig[0] == 12345 {
		t.Fatal("Pad must copy")
	}
}

func TestPadOnlyDecreasesSlots(t *testing.T) {
	h := minhash.NewHasher(128, 1)
	sig := h.SketchStrings([]string{"x", "y", "z"})
	out := Pad(sig, "k", 1000)
	for i := range sig {
		if out[i] > sig[i] {
			t.Fatalf("slot %d increased after padding", i)
		}
	}
}

func TestPadDeterministic(t *testing.T) {
	h := minhash.NewHasher(64, 1)
	sig := h.SketchStrings([]string{"x"})
	a := Pad(sig, "k", 50)
	b := Pad(sig, "k", 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Pad not deterministic")
		}
	}
	c := Pad(sig, "other", 50)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different keys produced identical padding")
	}
}

// TestPadMatchesExactDistribution cross-validates the inverse-CDF padding
// sampler against literal padding (DESIGN.md substitution #3): over many
// domains, the mean normalized slot value after padding with k values must
// agree between the two constructions.
func TestPadMatchesExactDistribution(t *testing.T) {
	const m = 64
	const k = 40
	h := minhash.NewHasher(m, 3)
	const trials = 120
	var meanSim, meanExact float64
	for i := 0; i < trials; i++ {
		key := fmt.Sprintf("dom%d", i)
		sig := h.SketchStrings([]string{key + "v1", key + "v2"})
		sim := Pad(sig, key, k)
		exact := PadExact(h, sig, key, k)
		for j := 0; j < m; j++ {
			meanSim += float64(sim[j]) / float64(minhash.MersennePrime)
			meanExact += float64(exact[j]) / float64(minhash.MersennePrime)
		}
	}
	meanSim /= trials * m
	meanExact /= trials * m
	// Both should be ≈ 1/(k+2+1) = 1/43; allow generous sampling noise.
	if math.Abs(meanSim-meanExact) > 0.15*meanExact {
		t.Fatalf("simulated padding mean %v vs exact %v", meanSim, meanExact)
	}
}

func TestSelfRetrievalLowSkew(t *testing.T) {
	// With low skew (sizes near M), asym works: self-queries are found.
	rng := xrand.New(9)
	h := minhash.NewHasher(256, 7)
	var recs []domain.Record
	for i := 0; i < 100; i++ {
		size := 900 + rng.Intn(100) // all domains nearly the same size
		hashed := make([]uint64, size)
		for j := range hashed {
			hashed[j] = minhash.HashUint64(uint64(i*10000 + j))
		}
		recs = append(recs, domain.Record{Key: fmt.Sprintf("a%03d", i), Size: size, Sig: h.Sketch(hashed)})
	}
	x, err := Build(recs, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for i := 0; i < 50; i++ {
		r := recs[i]
		found := false
		for _, k := range x.Query(r.Sig, r.Size, 0.5) {
			if k == r.Key {
				found = true
			}
		}
		if !found {
			misses++
		}
	}
	if misses > 5 {
		t.Fatalf("%d/50 self-misses at low skew", misses)
	}
}

func TestRecallCollapsesUnderSkew(t *testing.T) {
	// The paper's appendix: with M ≫ q and a high threshold, qualifying
	// domains are almost never retrieved. Build a corpus with one huge
	// domain (forcing large M) and query with a small domain fully
	// contained in a small indexed domain.
	h := minhash.NewHasher(256, 7)
	sketchRange := func(lo, hi int) (minhash.Signature, int) {
		hashed := make([]uint64, 0, hi-lo)
		for v := lo; v < hi; v++ {
			hashed = append(hashed, minhash.HashUint64(uint64(v)))
		}
		return h.Sketch(hashed), hi - lo
	}
	var recs []domain.Record
	// 50 small domains of size 20, each containing values [0,20).
	for i := 0; i < 50; i++ {
		sig, size := sketchRange(0, 20)
		recs = append(recs, domain.Record{Key: fmt.Sprintf("small%d", i), Size: size, Sig: sig})
	}
	// One huge domain forcing M = 100000.
	bigSig, bigSize := sketchRange(1000000, 1100000)
	recs = append(recs, domain.Record{Key: "huge", Size: bigSize, Sig: bigSig})

	x, err := Build(recs, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	qSig, qSize := sketchRange(0, 20) // fully contained in every small domain
	found := 0
	for _, k := range x.Query(qSig, qSize, 0.9) {
		if k != "huge" {
			found++
		}
	}
	// Theory: P(candidate) ≈ 1-(1-(20/100000)^r)^b ~ 0 even at r=1,b=32.
	if found > 5 {
		t.Fatalf("asym retrieved %d/50 qualifying domains under extreme skew — padding should suppress them", found)
	}
}

// TestProbFullContainment checks paper Eq. 32, P(t=1 | M, q, b, r): the
// candidate probability (Eq. 22) of a domain that fully contains the query
// once it is padded to size M.
func TestProbFullContainment(t *testing.T) {
	// Monotone decreasing in M; equals 1-(1-q/M)^b at r=1.
	prev := 1.1
	for _, M := range []float64{10, 100, 1000, 10000} {
		p := tune.CandidateProbability(1, M, 10, 256, 1)
		if p > prev {
			t.Fatalf("P should decrease with M")
		}
		prev = p
	}
	if p := tune.CandidateProbability(1, 10, 10, 256, 1); p < 0.999 {
		t.Fatalf("M=q should give ~1, got %v", p)
	}
	want := 1 - math.Pow(1-0.01, 256)
	if got := tune.CandidateProbability(1, 1000, 10, 256, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("analytic mismatch: %v vs %v", got, want)
	}
}

func TestMinHashesForRecall(t *testing.T) {
	// m* grows roughly linearly with M (Fig. 10 right).
	m1 := MinHashesForRecall(1000, 1, 0.5)
	m2 := MinHashesForRecall(2000, 1, 0.5)
	m4 := MinHashesForRecall(4000, 1, 0.5)
	if !(m2 > m1 && m4 > m2) {
		t.Fatalf("m* not increasing: %d %d %d", m1, m2, m4)
	}
	ratio := float64(m4) / float64(m1)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("m* should grow ~linearly: m*(4000)/m*(1000) = %v", ratio)
	}
	// The chosen m* must actually achieve the target.
	m := MinHashesForRecall(5000, 3, 0.5)
	if p := tune.CandidateProbability(1, 5000, 3, m, 1); p < 0.5 {
		t.Fatalf("m*=%d gives P=%v < 0.5", m, p)
	}
	if MinHashesForRecall(10, 20, 0.5) != 1 {
		t.Fatal("q >= M should need only 1 hash")
	}
}

func TestQueryEdgeCases(t *testing.T) {
	recs, _ := makeRecords(20, 64, 500, 11)
	x, err := Build(recs, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Query(recs[0].Sig, 0, 0.5); got != nil {
		t.Fatal("zero query size should return nil")
	}
	// Every query is tuned at M, the one partition's upper bound.
	maxSize := 0
	for _, r := range recs {
		maxSize = max(maxSize, r.Size)
	}
	if got := x.Stats().SegmentDetail[0].MaxBound; got != maxSize {
		t.Fatalf("upper bound %d, want M = %d", got, maxSize)
	}
}

func TestBuildValidation(t *testing.T) {
	h := minhash.NewHasher(64, 1)
	sig := h.SketchStrings([]string{"a"})
	if _, err := Build([]domain.Record{{Key: "k", Size: 0, Sig: sig}}, 64, 4); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := Build([]domain.Record{{Key: "k", Size: 1, Sig: sig[:10]}}, 64, 4); err == nil {
		t.Fatal("short signature accepted")
	}
	// A depth beyond the signature length is refused, not a tuner panic.
	if _, err := Build([]domain.Record{{Key: "k", Size: 1, Sig: sig}}, 64, 128); err == nil {
		t.Fatal("rMax > numHash accepted")
	}
	if _, err := Build([]domain.Record{{Key: "k", Size: 1, Sig: sig}}, -1, 4); err == nil {
		t.Fatal("negative numHash accepted")
	}
}

// TestConcurrentPooledQueries hammers the index's pooled query scratch from
// many goroutines; every result must match the single-threaded reference.
// Run with -race: the pool must never hand one scratch to two in-flight
// queries.
func TestConcurrentPooledQueries(t *testing.T) {
	recs, _ := makeRecords(400, 64, 500, 9)
	x, err := Build(recs, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	queries := []int{0, 17, 63, 101, 250, 399}
	want := make([]int, len(queries))
	for i, qi := range queries {
		want[i] = len(x.Query(recs[qi].Sig, recs[qi].Size, 0.5))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 30; rep++ {
				i := (w + rep) % len(queries)
				qi := queries[i]
				got := len(x.Query(recs[qi].Sig, recs[qi].Size, 0.5))
				if got != want[i] {
					errs <- fmt.Errorf("worker %d: query %d returned %d results, want %d", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBuildDeterministic requires the parallel pad + build pipeline to
// produce the same index as a fresh build: padding streams are derived from
// the record key, so worker scheduling must not leak into the result. The
// indexes are compared by their snapshot encodings, which hold the segment's
// signatures and forest.
func TestBuildDeterministic(t *testing.T) {
	recs, _ := makeRecords(300, 64, 2000, 11)
	a, err := Build(recs, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(recs, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	ab := a.AppendBinary(nil)
	bb := b.AppendBinary(nil)
	if len(ab) != len(bb) {
		t.Fatalf("snapshot encodings differ in length: %d vs %d", len(ab), len(bb))
	}
	for i := range ab {
		if ab[i] != bb[i] {
			t.Fatalf("snapshot encodings differ at byte %d", i)
		}
	}
}
