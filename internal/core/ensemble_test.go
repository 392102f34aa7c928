package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"

	"lshensemble/internal/minhash"
	"lshensemble/internal/partition"
	"lshensemble/internal/xrand"
)

// testCorpus builds n integer-valued domains with power-law sizes where
// domain i shares a prefix of the universe, creating a spectrum of true
// containment scores against prefix queries.
type testCorpus struct {
	hasher  *minhash.Hasher
	records []Record
	values  [][]uint64
}

func makeCorpus(t testing.TB, n, numHash int, seed uint64) *testCorpus {
	t.Helper()
	rng := xrand.New(seed)
	h := minhash.NewHasher(numHash, 42)
	c := &testCorpus{hasher: h}
	for i := 0; i < n; i++ {
		size := rng.Pareto(2.0, 10, 5000)
		vals := make([]uint64, size)
		var base uint64
		if rng.Float64() < 0.5 {
			base = 0 // overlapping cluster: values 0..size-1
		} else {
			base = uint64(1+rng.Intn(1000)) * 1000000 // scattered
		}
		for j := range vals {
			vals[j] = base + uint64(j)
		}
		hashed := make([]uint64, size)
		for j, v := range vals {
			hashed[j] = minhash.HashUint64(v)
		}
		c.values = append(c.values, vals)
		c.records = append(c.records, Record{
			Key:  fmt.Sprintf("d%04d", i),
			Size: size,
			Sig:  h.Sketch(hashed),
		})
	}
	return c
}

// mustQuery returns the keys of QueryIDsAppend's candidates; it fails the
// test on any error.
func mustQuery(t testing.TB, x *Index, sig minhash.Signature, querySize int, tStar float64) []string {
	t.Helper()
	ids, err := x.QueryIDsAppend(nil, sig, querySize, tStar)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = x.Key(id)
	}
	return keys
}

// trueContainment computes t(Q, X) exactly.
func trueContainment(q, x []uint64) float64 {
	set := make(map[uint64]struct{}, len(x))
	for _, v := range x {
		set[v] = struct{}{}
	}
	hit := 0
	for _, v := range q {
		if _, ok := set[v]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(q))
}

func TestBuildValidation(t *testing.T) {
	h := minhash.NewHasher(16, 1)
	sig := h.SketchStrings([]string{"a"})
	if _, err := Build(nil, Options{}); err != ErrEmpty {
		t.Fatalf("empty build: %v", err)
	}
	if _, err := Build([]Record{{Key: "k", Size: 0, Sig: sig}}, Options{NumHash: 16}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := Build([]Record{{Key: "k", Size: 1, Sig: sig[:8]}}, Options{NumHash: 16}); err == nil {
		t.Fatal("short signature accepted")
	}
	if _, err := Build([]Record{{Key: "k", Size: 1, Sig: sig}}, Options{NumHash: 16, RMax: 32}); err == nil {
		t.Fatal("RMax > NumHash accepted")
	}
}

func TestDefaults(t *testing.T) {
	h := minhash.NewHasher(256, 1)
	recs := []Record{{Key: "k", Size: 5, Sig: h.SketchStrings([]string{"a", "b", "c", "d", "e"})}}
	x, err := Build(recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := x.Options()
	if o.NumHash != 256 || o.RMax != 8 || o.NumPartitions != 16 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestSelfRetrieval(t *testing.T) {
	// Every indexed domain queried by itself at any threshold must be found
	// (containment 1.0, identical signature → collides in every band).
	c := makeCorpus(t, 200, 128, 1)
	x, err := Build(c.records, Options{NumHash: 128, RMax: 4, NumPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tStar := range []float64{0.1, 0.5, 1.0} {
		for i, r := range c.records {
			got := mustQuery(t, x, r.Sig, r.Size, tStar)
			found := false
			for _, k := range got {
				if k == r.Key {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("domain %d not self-retrieved at t*=%v", i, tStar)
			}
		}
	}
}

func TestRecallAgainstGroundTruth(t *testing.T) {
	// The ensemble is recall-biased by design: verify high recall against
	// exact containment at a mid threshold.
	c := makeCorpus(t, 500, 256, 2)
	x, err := Build(c.records, Options{NumHash: 256, RMax: 8, NumPartitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	const tStar = 0.5
	totalTruth, totalHit := 0, 0
	for qi := 0; qi < 50; qi++ {
		q := c.values[qi*7%len(c.values)]
		sig := c.records[qi*7%len(c.values)].Sig
		got := map[string]bool{}
		for _, k := range mustQuery(t, x, sig, len(q), tStar) {
			got[k] = true
		}
		for xi, xv := range c.values {
			if trueContainment(q, xv) >= tStar {
				totalTruth++
				if got[c.records[xi].Key] {
					totalHit++
				}
			}
		}
	}
	if totalTruth == 0 {
		t.Fatal("degenerate corpus: no qualifying pairs")
	}
	recall := float64(totalHit) / float64(totalTruth)
	if recall < 0.85 {
		t.Fatalf("recall %v too low (%d/%d)", recall, totalHit, totalTruth)
	}
}

func TestMorePartitionsImprovePrecision(t *testing.T) {
	// The paper's central accuracy claim (Fig. 4): partitioning increases
	// precision at comparable recall on skewed corpora.
	c := makeCorpus(t, 800, 256, 3)
	const tStar = 0.5
	precision := func(nPart int) float64 {
		x, err := Build(c.records, Options{NumHash: 256, RMax: 8, NumPartitions: nPart})
		if err != nil {
			t.Fatal(err)
		}
		tp, returned := 0, 0
		for qi := 0; qi < 40; qi++ {
			idx := qi * 13 % len(c.values)
			q := c.values[idx]
			res := mustQuery(t, x, c.records[idx].Sig, len(q), tStar)
			returned += len(res)
			for _, k := range res {
				var xi int
				fmt.Sscanf(k, "d%d", &xi)
				if trueContainment(q, c.values[xi]) >= tStar {
					tp++
				}
			}
		}
		if returned == 0 {
			return 1
		}
		return float64(tp) / float64(returned)
	}
	p1 := precision(1)
	p16 := precision(16)
	if p16 <= p1 {
		t.Fatalf("16 partitions precision %v should beat baseline %v", p16, p1)
	}
}

func TestPartitionSkipping(t *testing.T) {
	// A partition whose upper bound cannot reach the threshold is skipped:
	// querying with a huge query size must return nothing from small
	// partitions (u/q < t*) yet not panic.
	c := makeCorpus(t, 100, 128, 5)
	x, err := Build(c.records, Options{NumHash: 128, RMax: 4, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, x, c.records[0].Sig, 10_000_000, 0.9)
	if len(res) != 0 {
		t.Fatalf("impossible threshold returned %d candidates", len(res))
	}
}

func TestQueryEdgeCases(t *testing.T) {
	c := makeCorpus(t, 50, 64, 8)
	x, err := Build(c.records, Options{NumHash: 64, RMax: 4, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := x.QueryIDsAppend(nil, c.records[0].Sig, 0, 0.5); err != nil || got != nil {
		t.Fatalf("zero query size should return nil, nil (got %v, %v)", got, err)
	}
	// Threshold clamping must not panic.
	mustQuery(t, x, c.records[0].Sig, 10, -0.5)
	mustQuery(t, x, c.records[0].Sig, 10, 1.5)
}

func TestEstimatedQuerySize(t *testing.T) {
	// Algorithm 1 uses approx(|Q|) from the signature; verify querying with
	// the cardinality estimate retrieves the domain itself.
	c := makeCorpus(t, 200, 256, 9)
	x, err := Build(c.records, Options{NumHash: 256, RMax: 8, NumPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for i := 0; i < 50; i++ {
		r := c.records[i*3%len(c.records)]
		est := int(r.Sig.Cardinality())
		if est < 1 {
			est = 1
		}
		found := false
		for _, k := range mustQuery(t, x, r.Sig, est, 0.8) {
			if k == r.Key {
				found = true
			}
		}
		if !found {
			misses++
		}
	}
	if misses > 2 {
		t.Fatalf("%d/50 self-misses with estimated query size", misses)
	}
}

func TestCustomPartitioner(t *testing.T) {
	c := makeCorpus(t, 300, 64, 10)
	for _, pf := range []PartitionerFunc{partition.EquiWidth, partition.Minimax} {
		x, err := Build(c.records, Options{NumHash: 64, RMax: 4, NumPartitions: 8, Partitioner: pf})
		if err != nil {
			t.Fatal(err)
		}
		r := c.records[0]
		found := false
		for _, k := range mustQuery(t, x, r.Sig, r.Size, 1.0) {
			if k == r.Key {
				found = true
			}
		}
		if !found {
			t.Fatal("self-retrieval failed under custom partitioner")
		}
	}
}

func TestPartitionBoundsDisjoint(t *testing.T) {
	c := makeCorpus(t, 400, 64, 11)
	x, err := Build(c.records, Options{NumHash: 64, RMax: 4, NumPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	bounds := x.PartitionBounds()
	total := 0
	for i, b := range bounds {
		total += b.Count
		if i > 0 && bounds[i-1].Upper >= b.Lower {
			t.Fatalf("partitions %d and %d overlap", i-1, i)
		}
	}
	if total != x.Len() {
		t.Fatalf("partition counts sum %d != %d", total, x.Len())
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	c := makeCorpus(t, 150, 64, 12)
	x, err := Build(c.records, Options{NumHash: 64, RMax: 4, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	buf := x.AppendBinary(nil)
	y, rest, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	if y.Len() != x.Len() || y.NumPartitions() != x.NumPartitions() {
		t.Fatal("shape mismatch after decode")
	}
	for qi := 0; qi < 20; qi++ {
		r := c.records[qi*7%len(c.records)]
		a := mustQuery(t, x, r.Sig, r.Size, 0.5)
		b := mustQuery(t, y, r.Sig, r.Size, 0.5)
		sort.Strings(a)
		sort.Strings(b)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("query %d differs after round trip", qi)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, _, err := Decode([]byte("nope")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage: err %v, want ErrCorrupt", err)
	}
	c := makeCorpus(t, 20, 64, 13)
	x, _ := Build(c.records, Options{NumHash: 64, RMax: 4, NumPartitions: 2})
	buf := x.AppendBinary(nil)
	for _, cut := range []int{5, 21, len(buf) / 2, len(buf) - 3} {
		if _, _, err := Decode(buf[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err %v, want ErrCorrupt", cut, err)
		}
	}
	// A well-framed 24-byte header of zero keys and zero partitions: the
	// shape Build refuses with ErrEmpty is no index either when read back.
	empty := append([]byte("LSHE"), make([]byte, 20)...)
	binary.LittleEndian.PutUint32(empty[4:], 64) // numHash
	binary.LittleEndian.PutUint32(empty[8:], 4)  // rMax
	binary.LittleEndian.PutUint32(empty[12:], 2) // numPartitions
	if idx, _, err := Decode(empty); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty index: decoded %v, err %v, want ErrCorrupt", idx, err)
	}
}

func BenchmarkBuild1k(b *testing.B) {
	c := makeCorpus(b, 1000, 256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(c.records, Options{NumPartitions: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery1k(b *testing.B) {
	c := makeCorpus(b, 1000, 256, 1)
	x, err := Build(c.records, Options{NumPartitions: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.records[i%len(c.records)]
		mustQuery(b, x, r.Sig, r.Size, 0.5)
	}
}
