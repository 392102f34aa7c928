package core

import (
	"slices"
	"testing"

	"lshensemble/internal/domain"
	"lshensemble/internal/minhash"
)

// topKFixture builds nested prefix domains: domain i holds values
// [0, 20·(i+1)), so for a query of the first 20 values every domain fully
// contains it, while reversed queries rank larger domains lower.
func topKFixture(t testing.TB, numHash int) (*Index, *minhash.Hasher, [][]uint64) {
	t.Helper()
	h := minhash.NewHasher(numHash, 5)
	var recs []domain.Record
	var vals [][]uint64
	for i := 0; i < 20; i++ {
		n := 20 * (i + 1)
		v := make([]uint64, n)
		hv := make([]uint64, n)
		for j := 0; j < n; j++ {
			v[j] = uint64(j)
			hv[j] = minhash.HashUint64(uint64(j))
		}
		vals = append(vals, v)
		recs = append(recs, domain.Record{Key: key(i), Size: n, Sig: h.Sketch(hv)})
	}
	idx, err := Build(recs, Options{NumHash: numHash, RMax: 8, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	return idx, h, vals
}

func key(i int) string { return string(rune('a' + i)) }

// mustTopK ranks the ladder's collection the way the live index ranks a
// segment's: each candidate scored by EstContainment, sorted by domain.CompareTopK,
// the best k kept.
func mustTopK(t testing.TB, x *Index, sig minhash.Signature, querySize, k int) []domain.TopKResult {
	t.Helper()
	ids, err := x.QueryTopKIDs(nil, sig, querySize, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		return nil
	}
	top := make([]domain.TopKResult, len(ids))
	for i, id := range ids {
		top[i] = domain.TopKResult{Key: x.Key(id), EstContainment: x.EstContainment(id, sig, querySize)}
	}
	slices.SortFunc(top, domain.CompareTopK)
	return top[:min(k, len(top))]
}

func TestQueryTopKRanksBySizeOnNestedPrefixes(t *testing.T) {
	idx, h, _ := topKFixture(t, 256)
	// Query = domain 5's values [0, 120): it is fully contained in domains
	// 5..19 (est. containment ~1) and partially in 0..4. Top-1 should have
	// estimated containment near 1.
	q := make([]uint64, 120)
	for j := range q {
		q[j] = minhash.HashUint64(uint64(j))
	}
	sig := h.Sketch(q)
	top := mustTopK(t, idx, sig, 120, 5)
	if len(top) != 5 {
		t.Fatalf("got %d results, want 5", len(top))
	}
	if top[0].EstContainment < 0.9 {
		t.Fatalf("top result containment %v, want ~1", top[0].EstContainment)
	}
	// Scores must be non-increasing.
	for i := 1; i < len(top); i++ {
		if top[i].EstContainment > top[i-1].EstContainment+1e-12 {
			t.Fatalf("ranking not sorted at %d", i)
		}
	}
}

func TestQueryTopKSelfFirst(t *testing.T) {
	idx, _, _ := topKFixture(t, 256)
	// Query with domain 19 (largest): only supersets of it are itself.
	sig := idx.AppendSignature(nil, 19)
	top := mustTopK(t, idx, sig, idx.Size(19), 3)
	if len(top) == 0 || top[0].Key != key(19) {
		t.Fatalf("self not ranked first: %+v", top)
	}
	if top[0].EstContainment < 0.99 {
		t.Fatalf("self containment %v", top[0].EstContainment)
	}
}

func TestQueryTopKEdgeCases(t *testing.T) {
	idx, h, _ := topKFixture(t, 256)
	sig := h.Sketch([]uint64{minhash.HashUint64(7)})
	if got := mustTopK(t, idx, sig, 1, 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := mustTopK(t, idx, sig, 0, 5); got != nil {
		t.Fatal("querySize=0 should return nil")
	}
	// k larger than corpus: returns at most corpus size, no panic.
	full := mustTopK(t, idx, idx.AppendSignature(nil, 0), idx.Size(0), 1000)
	if len(full) > idx.Len() {
		t.Fatalf("returned %d > corpus %d", len(full), idx.Len())
	}
}

func TestQueryTopKSurvivesSerialization(t *testing.T) {
	idx, _, _ := topKFixture(t, 128)
	buf := idx.AppendBinary(nil)
	loaded, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	a := mustTopK(t, idx, idx.AppendSignature(nil, 3), idx.Size(3), 4)
	b := mustTopK(t, loaded, loaded.AppendSignature(nil, 3), loaded.Size(3), 4)
	if len(a) != len(b) {
		t.Fatalf("topk differs after decode: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("topk order differs at %d: %s vs %s", i, a[i].Key, b[i].Key)
		}
	}
}
