package lshforest

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"lshensemble/internal/minhash"
	"lshensemble/internal/xrand"
)

// bruteCandidates computes the set of ids whose signature agrees with the
// query on at least one of the first b bands of width r — the definitional
// LSH candidate set the forest must reproduce exactly.
func bruteCandidates(sigs [][]uint64, ids []uint32, q []uint64, b, r, rMax int) map[uint32]bool {
	out := map[uint32]bool{}
	for i, s := range sigs {
		for t := 0; t < b; t++ {
			off := t * rMax
			match := true
			for k := 0; k < r; k++ {
				if s[off+k] != q[off+k] {
					match = false
					break
				}
			}
			if match {
				out[ids[i]] = true
				break
			}
		}
	}
	return out
}

func randSigs(rng *xrand.RNG, n, m int, valueRange uint64) ([][]uint64, []uint32) {
	sigs := make([][]uint64, n)
	ids := make([]uint32, n)
	for i := range sigs {
		s := make([]uint64, m)
		for k := range s {
			s[k] = rng.Uint64() % valueRange // small range → many collisions
		}
		sigs[i] = s
		ids[i] = uint32(i * 3) // non-contiguous ids
	}
	return sigs, ids
}

func TestForestMatchesBruteForce(t *testing.T) {
	rng := xrand.New(42)
	const m, rMax = 16, 4
	sigs, ids := randSigs(rng, 200, m, 4)
	f := New(m, rMax)
	for i := range sigs {
		f.Add(ids[i], sigs[i])
	}
	f.Index()
	for trial := 0; trial < 50; trial++ {
		q := make([]uint64, m)
		for k := range q {
			q[k] = rng.Uint64() % 4
		}
		for b := 1; b <= f.BMax(); b++ {
			for r := 1; r <= rMax; r++ {
				want := bruteCandidates(sigs, ids, q, b, r, rMax)
				got := map[uint32]bool{}
				f.Query(q, b, r, nil, func(id uint32) bool {
					got[id] = true
					return true
				})
				if len(got) != len(want) {
					t.Fatalf("b=%d r=%d: got %d candidates, want %d", b, r, len(got), len(want))
				}
				for id := range want {
					if !got[id] {
						t.Fatalf("b=%d r=%d: missing id %d", b, r, id)
					}
				}
			}
		}
	}
}

func TestForestMatchesBruteForceProperty(t *testing.T) {
	// Property-based variant with random shapes.
	f := func(seed uint64, bRaw, rRaw uint8) bool {
		rng := xrand.New(seed)
		const m, rMax = 8, 2
		n := 20 + rng.Intn(80)
		sigs, ids := randSigs(rng, n, m, 3)
		fr := New(m, rMax)
		for i := range sigs {
			fr.Add(ids[i], sigs[i])
		}
		fr.Index()
		b := 1 + int(bRaw)%fr.BMax()
		r := 1 + int(rRaw)%rMax
		q := sigs[rng.Intn(n)] // query with an indexed signature
		want := bruteCandidates(sigs, ids, q, b, r, rMax)
		got := map[uint32]bool{}
		fr.Query(q, b, r, nil, func(id uint32) bool {
			got[id] = true
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for id := range want {
			if !got[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSelfQueryAlwaysFound(t *testing.T) {
	// Any indexed signature queried with any (b, r) must find itself.
	rng := xrand.New(7)
	const m, rMax = 32, 8
	sigs, ids := randSigs(rng, 100, m, 1<<40)
	f := New(m, rMax)
	for i := range sigs {
		f.Add(ids[i], sigs[i])
	}
	f.Index()
	for i := range sigs {
		for _, b := range []int{1, 2, 4} {
			for _, r := range []int{1, 4, 8} {
				found := false
				f.Query(sigs[i], b, r, nil, func(id uint32) bool {
					if id == ids[i] {
						found = true
						return false
					}
					return true
				})
				if !found {
					t.Fatalf("entry %d not found with b=%d r=%d", i, b, r)
				}
			}
		}
	}
}

func TestQueryEarlyStop(t *testing.T) {
	f := New(4, 2)
	sig := []uint64{1, 2, 3, 4}
	for i := 0; i < 10; i++ {
		f.Add(uint32(i), sig)
	}
	f.Index()
	calls := 0
	f.Query(sig, 2, 2, nil, func(id uint32) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("early stop: %d calls, want 3", calls)
	}
}

func TestQueryReportsEveryOccurrence(t *testing.T) {
	f := New(8, 2) // 4 trees
	sig := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	f.Add(99, sig)
	f.Index()
	// Query does not dedup: the id is found in all 4 trees.
	count := 0
	f.Query(sig, 4, 2, nil, func(id uint32) bool {
		count++
		return true
	})
	if count != 4 {
		t.Fatalf("raw query reported %d times, want 4", count)
	}
}

func TestEmptyForest(t *testing.T) {
	f := New(8, 2)
	f.Index()
	f.Query(make([]uint64, 8), 1, 1, nil, func(id uint32) bool {
		t.Fatal("empty forest produced a candidate")
		return false
	})
}

func TestPanics(t *testing.T) {
	cases := map[string]func(){
		"zero numHash": func() { New(0, 1) },
		"rMax zero":    func() { New(8, 0) },
		"rMax too big": func() { New(8, 9) },
		"short sig":    func() { New(8, 2).Add(0, make([]uint64, 7)) },
		"query unindexed": func() {
			f := New(8, 2)
			f.Add(0, make([]uint64, 8))
			f.Query(make([]uint64, 8), 1, 1, nil, nil)
		},
		"b out of range": func() {
			f := New(8, 2)
			f.Index()
			f.Query(make([]uint64, 8), 5, 1, nil, func(uint32) bool { return true })
		},
		"r out of range": func() {
			f := New(8, 2)
			f.Index()
			f.Query(make([]uint64, 8), 1, 3, nil, func(uint32) bool { return true })
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAddAfterIndexInvalidatesTrees(t *testing.T) {
	f := New(4, 2)
	f.Add(1, []uint64{1, 1, 1, 1})
	f.Index()
	if !f.Indexed() {
		t.Fatal("should be indexed")
	}
	f.Add(2, []uint64{1, 1, 1, 1})
	if f.Indexed() {
		t.Fatal("Add should invalidate the index")
	}
	f.Index()
	got := map[uint32]bool{}
	f.Query([]uint64{1, 1, 1, 1}, 2, 2, nil, func(id uint32) bool {
		got[id] = true
		return true
	})
	if !got[1] || !got[2] {
		t.Fatalf("after reindex both entries must be found, got %v", got)
	}
}

func TestRealSignatures(t *testing.T) {
	// End-to-end with real MinHash signatures: similar sets should collide
	// at permissive (b, r); dissimilar ones should not at strict settings.
	h := minhash.NewHasher(64, 11)
	f := New(64, 4) // 16 trees
	base := make([]string, 50)
	for i := range base {
		base[i] = fmt.Sprintf("v%d", i)
	}
	similar := append(append([]string{}, base[:45]...), "x1", "x2", "x3", "x4", "x5")
	other := make([]string, 50)
	for i := range other {
		other[i] = fmt.Sprintf("w%d", i)
	}
	f.Add(0, h.SketchStrings(base))
	f.Add(1, h.SketchStrings(similar))
	f.Add(2, h.SketchStrings(other))
	f.Index()

	q := h.SketchStrings(base)
	got := map[uint32]bool{}
	f.Query(q, 16, 1, nil, func(id uint32) bool { got[id] = true; return true })
	if !got[0] || !got[1] {
		t.Fatalf("similar sets not retrieved at permissive setting: %v", got)
	}
	got = map[uint32]bool{}
	f.Query(q, 1, 4, nil, func(id uint32) bool { got[id] = true; return true })
	if got[2] {
		t.Fatal("dissimilar set retrieved at strict setting")
	}
}

func TestForestRoundTrip(t *testing.T) {
	rng := xrand.New(3)
	const m, rMax = 16, 4
	sigs, ids := randSigs(rng, 50, m, 8)
	f := New(m, rMax)
	for i := range sigs {
		f.Add(ids[i], sigs[i])
	}
	f.Index()
	buf := f.AppendBinary(nil)
	g, rest, err := DecodeForest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	if g.Len() != f.Len() || g.NumHash() != f.NumHash() || g.RMax() != f.RMax() {
		t.Fatal("shape mismatch after round trip")
	}
	// Query equivalence on a few probes.
	for trial := 0; trial < 10; trial++ {
		q := sigs[rng.Intn(len(sigs))]
		want, got := []uint32{}, []uint32{}
		f.Query(q, 4, 2, nil, func(id uint32) bool { want = append(want, id); return true })
		g.Query(q, 4, 2, nil, func(id uint32) bool { got = append(got, id); return true })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(want) != len(got) {
			t.Fatalf("round-trip query mismatch: %v vs %v", want, got)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("round-trip query mismatch: %v vs %v", want, got)
			}
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, _, err := DecodeForest([]byte("bogus")); err == nil {
		t.Fatal("garbage should fail")
	}
	f := New(4, 2)
	f.Add(1, []uint64{1, 2, 3, 4})
	buf := f.AppendBinary(nil)
	if _, _, err := DecodeForest(buf[:len(buf)-4]); err == nil {
		t.Fatal("truncated buffer should fail")
	}
	bad := append([]byte{}, buf...)
	bad[0] = 'X'
	if _, _, err := DecodeForest(bad); err == nil {
		t.Fatal("bad magic should fail")
	}
}

// BenchmarkForestQuery probes a 10 000-entry forest with queries that share
// a quarter of their trees' leading values with a stored signature: full
// binary-searches all 32 columns, masked only the trees whose column holds
// the query's leading value (what internal/live's Bloom-derived set allows).
func BenchmarkForestQuery(b *testing.B) {
	rng := xrand.New(1)
	const m, rMax, bMax = 256, 8, 32
	f := New(m, rMax)
	sigs, ids := randSigs(rng, 10000, m, 1<<20)
	for i := range sigs {
		f.Add(ids[i], sigs[i])
	}
	f.Index()
	// Distinct queries, so the columns are not all cache-resident.
	queries := make([][]uint64, 256)
	exact := make([]TreeSet, len(queries))
	for i := range queries {
		q := slices.Clone(sigs[rng.Intn(len(sigs))])
		exact[i] = make(TreeSet, TreeSetWords(bMax))
		for t := 0; t < bMax; t++ {
			if t%4 != 0 {
				q[t*rMax] = 1<<40 + rng.Uint64()%(1<<20) // outside the stored range
			} else {
				exact[i].Add(t)
			}
		}
		queries[i] = q
	}
	for _, masked := range []bool{false, true} {
		name := "full"
		if masked {
			name = "masked"
		}
		b.Run(name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				var trees TreeSet
				if masked {
					trees = exact[i%len(queries)]
				}
				f.Query(queries[i%len(queries)], bMax, 4, trees, func(uint32) bool { n++; return true })
			}
		})
	}
}

func BenchmarkForestIndex(b *testing.B) {
	rng := xrand.New(1)
	const m, rMax = 256, 8
	sigs, ids := randSigs(rng, 5000, m, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := New(m, rMax)
		for j := range sigs {
			f.Add(ids[j], sigs[j])
		}
		f.Index()
	}
}

// BenchmarkForestIndexParallel measures the fanned-out tree rebuild with
// Reserve pre-sizing — the construction path core.Build drives. Run with
// -cpu 1,4,8 to see worker scaling.
func BenchmarkForestIndexParallel(b *testing.B) {
	rng := xrand.New(1)
	const m, rMax = 256, 8
	sigs, ids := randSigs(rng, 5000, m, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := New(m, rMax)
		f.Reserve(len(sigs))
		for j := range sigs {
			f.Add(ids[j], sigs[j])
		}
		f.IndexParallel(runtime.GOMAXPROCS(0))
	}
}

func TestTreeLeadingColumn(t *testing.T) {
	f := New(8, 2) // 4 trees of depth 2
	sigs := [][]uint64{
		{5, 1, 9, 2, 3, 4, 7, 8},
		{3, 1, 9, 2, 1, 4, 7, 8},
		{8, 1, 2, 2, 3, 4, 6, 8},
	}
	for i, s := range sigs {
		f.Add(uint32(i), s)
	}
	f.Index()
	for tr := 0; tr < f.BMax(); tr++ {
		col := f.TreeLeadingColumn(tr)
		if len(col) != len(sigs) {
			t.Fatalf("tree %d column length %d, want %d", tr, len(col), len(sigs))
		}
		for i := 1; i < len(col); i++ {
			if col[i-1] > col[i] {
				t.Fatalf("tree %d column not sorted: %v", tr, col)
			}
		}
		// Every stored leading value must appear in the column.
		for _, s := range sigs {
			want := s[tr*f.RMax()]
			found := false
			for _, v := range col {
				if v == want {
					found = true
				}
			}
			if !found {
				t.Fatalf("tree %d column %v missing leading value %d", tr, col, want)
			}
		}
	}
}

func TestTreeLeadingColumnEmptyForest(t *testing.T) {
	f := New(8, 2)
	f.Index()
	if col := f.TreeLeadingColumn(0); col != nil {
		t.Fatalf("empty forest returned column %v", col)
	}
}
