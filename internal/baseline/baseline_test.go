package baseline

import (
	"fmt"
	"testing"

	"lshensemble/internal/domain"
	"lshensemble/internal/minhash"
	"lshensemble/internal/xrand"
)

func makeRecords(n int, h *minhash.Hasher, seed uint64) ([]domain.Record, [][]uint64) {
	rng := xrand.New(seed)
	recs := make([]domain.Record, n)
	vals := make([][]uint64, n)
	for i := range recs {
		size := rng.Pareto(2.0, 10, 2000)
		v := make([]uint64, size)
		for j := range v {
			v[j] = uint64(j) // heavy overlap: prefix structure
		}
		vals[i] = v
		hashed := make([]uint64, size)
		for j := range v {
			hashed[j] = minhash.HashUint64(v[j])
		}
		recs[i] = domain.Record{Key: fmt.Sprintf("b%03d", i), Size: size, Sig: h.Sketch(hashed)}
	}
	return recs, vals
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil, 64, 4); err == nil {
		t.Fatal("empty build accepted")
	}
}

func TestSelfRetrieval(t *testing.T) {
	h := minhash.NewHasher(128, 1)
	recs, _ := makeRecords(100, h, 2)
	x, err := Build(recs, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	if x.Len() != 100 {
		t.Fatalf("Len = %d", x.Len())
	}
	for i := 0; i < 20; i++ {
		r := recs[i*5]
		found := false
		for _, k := range x.Query(r.Sig, r.Size, 0.5) {
			if k == r.Key {
				found = true
			}
		}
		if !found {
			t.Fatalf("record %s not self-retrieved", r.Key)
		}
	}
}

func TestUpperBoundIsGlobalMax(t *testing.T) {
	h := minhash.NewHasher(64, 1)
	recs, _ := makeRecords(200, h, 3)
	max := 0
	for _, r := range recs {
		if r.Size > max {
			max = r.Size
		}
	}
	x, err := Build(recs, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The one segment's one partition bounds the global maximum size.
	if got := x.Stats().SegmentDetail[0].MaxBound; got != max {
		t.Fatalf("upper bound = %d, want %d", got, max)
	}
}

func TestBaselineRecallHigh(t *testing.T) {
	// The baseline's conservative conversion keeps recall high even though
	// precision suffers — verify the recall half on a prefix corpus where
	// ground truth is analytic: domain j contains domain i iff
	// size_j >= size_i (all domains are prefixes of the same sequence).
	h := minhash.NewHasher(256, 1)
	recs, vals := makeRecords(150, h, 4)
	x, err := Build(recs, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	const tStar = 0.6
	truth, hit := 0, 0
	for qi := 0; qi < 30; qi++ {
		q := recs[qi*3]
		got := map[string]bool{}
		for _, k := range x.Query(q.Sig, q.Size, tStar) {
			got[k] = true
		}
		for xi, r := range recs {
			// containment of q in r = min(sizes)/|q| by prefix structure
			c := float64(min(len(vals[qi*3]), len(vals[xi]))) / float64(len(vals[qi*3]))
			if c >= tStar {
				truth++
				if got[r.Key] {
					hit++
				}
			}
		}
	}
	if truth == 0 {
		t.Fatal("degenerate workload")
	}
	if recall := float64(hit) / float64(truth); recall < 0.85 {
		t.Fatalf("baseline recall %v too low", recall)
	}
}
