package lshforest

import (
	"fmt"
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

// build is Build over signatures held as slices.
func build(numHash, rMax, width int, ids []uint32, sigs [][]uint64) *Forest {
	return Build(numHash, rMax, width, ids, func(i int) []uint64 { return sigs[i] })
}

// repeated returns n ids 0..n-1 that all carry sig.
func repeated(n int, sig []uint64) ([]uint32, [][]uint64) {
	ids := make([]uint32, n)
	sigs := make([][]uint64, n)
	for i := range ids {
		ids[i], sigs[i] = uint32(i), sig
	}
	return ids, sigs
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
	f := build(m, rMax, 8, ids, sigs)
	for trial := 0; trial < 50; trial++ {
		q := make([]uint64, m)
		for k := range q {
			q[k] = rng.Uint64() % 4
		}
		for b := 1; b <= f.BMax(); b++ {
			for r := 1; r <= rMax; r++ {
				want := bruteCandidates(sigs, ids, q, b, r, rMax)
				got := map[uint32]bool{}
				Probe([]Job{{Forest: f, B: b, R: r}}, q, func(id uint32) bool {
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
		fr := build(m, rMax, 8, ids, sigs)
		b := 1 + int(bRaw)%fr.BMax()
		r := 1 + int(rRaw)%rMax
		q := sigs[rng.Intn(n)] // query with an indexed signature
		want := bruteCandidates(sigs, ids, q, b, r, rMax)
		got := map[uint32]bool{}
		Probe([]Job{{Forest: fr, B: b, R: r}}, q, func(id uint32) bool {
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
	f := build(m, rMax, 8, ids, sigs)
	for i := range sigs {
		for _, b := range []int{1, 2, 4} {
			for _, r := range []int{1, 4, 8} {
				found := false
				Probe([]Job{{Forest: f, B: b, R: r}}, sigs[i], func(id uint32) bool {
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
	sig := []uint64{1, 2, 3, 4}
	ids, sigs := repeated(10, sig)
	f := build(4, 2, 8, ids, sigs)
	calls := 0
	Probe([]Job{{Forest: f, B: 2, R: 2}}, sig, func(id uint32) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("early stop: %d calls, want 3", calls)
	}
}

func TestQueryReportsEveryOccurrence(t *testing.T) {
	sig := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	f := build(8, 2, 8, []uint32{99}, [][]uint64{sig}) // 4 trees
	// A probe does not dedup: the id is found in all 4 trees.
	count := 0
	Probe([]Job{{Forest: f, B: 4, R: 2}}, sig, func(id uint32) bool {
		count++
		return true
	})
	if count != 4 {
		t.Fatalf("raw query reported %d times, want 4", count)
	}
}

func TestEmptyForest(t *testing.T) {
	f := build(8, 2, 8, nil, nil)
	Probe([]Job{{Forest: f, B: 1, R: 1}}, make([]uint64, 8), func(id uint32) bool {
		t.Fatal("empty forest produced a candidate")
		return false
	})
}

func TestPanics(t *testing.T) {
	cases := map[string]func(){
		"zero numHash": func() { build(0, 1, 8, nil, nil) },
		"rMax zero":    func() { build(8, 0, 8, nil, nil) },
		"rMax too big": func() { build(8, 9, 8, nil, nil) },
		"bad width":    func() { build(8, 2, 3, nil, nil) },
		"width 1":      func() { build(8, 2, 1, nil, nil) },
		"short sig":    func() { build(8, 2, 8, []uint32{0}, [][]uint64{make([]uint64, 7)}) },
		"b out of range": func() {
			Probe([]Job{{Forest: build(8, 2, 8, nil, nil), B: 5, R: 1}}, make([]uint64, 8), func(uint32) bool { return true })
		},
		"r out of range": func() {
			Probe([]Job{{Forest: build(8, 2, 8, nil, nil), B: 1, R: 3}}, make([]uint64, 8), func(uint32) bool { return true })
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

func TestRealSignatures(t *testing.T) {
	// End-to-end with real MinHash signatures: similar sets should collide
	// at permissive (b, r); dissimilar ones should not at strict settings.
	h := minhash.NewHasher(64, 11)
	base := make([]string, 50)
	for i := range base {
		base[i] = fmt.Sprintf("v%d", i)
	}
	similar := append(append([]string{}, base[:45]...), "x1", "x2", "x3", "x4", "x5")
	other := make([]string, 50)
	for i := range other {
		other[i] = fmt.Sprintf("w%d", i)
	}
	f := build(64, 4, 8, []uint32{0, 1, 2}, [][]uint64{ // 16 trees
		h.SketchStrings(base), h.SketchStrings(similar), h.SketchStrings(other),
	})

	q := h.SketchStrings(base)
	got := map[uint32]bool{}
	Probe([]Job{{Forest: f, B: 16, R: 1}}, q, func(id uint32) bool { got[id] = true; return true })
	if !got[0] || !got[1] {
		t.Fatalf("similar sets not retrieved at permissive setting: %v", got)
	}
	got = map[uint32]bool{}
	Probe([]Job{{Forest: f, B: 1, R: 4}}, q, func(id uint32) bool { got[id] = true; return true })
	if got[2] {
		t.Fatal("dissimilar set retrieved at strict setting")
	}
}

func TestForestRoundTrip(t *testing.T) {
	rng := xrand.New(3)
	const m, rMax = 16, 4
	sigs, ids := randSigs(rng, 50, m, 8)
	f := build(m, rMax, 8, ids, sigs)
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
	// Probe equivalence on a few queries.
	for trial := 0; trial < 10; trial++ {
		q := sigs[rng.Intn(len(sigs))]
		want, got := []uint32{}, []uint32{}
		Probe([]Job{{Forest: f, B: 4, R: 2}}, q, func(id uint32) bool { want = append(want, id); return true })
		Probe([]Job{{Forest: g, B: 4, R: 2}}, q, func(id uint32) bool { got = append(got, id); return true })
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
	buf := build(4, 2, 8, []uint32{1}, [][]uint64{{1, 2, 3, 4}}).AppendBinary(nil)
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
	sigs, ids := randSigs(rng, 10000, m, 1<<20)
	f := build(m, rMax, 8, ids, sigs)
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
				Probe([]Job{{Forest: f, B: bMax, R: 4, Trees: trees}}, queries[i%len(queries)], func(uint32) bool { n++; return true })
			}
		})
	}
}

// BenchmarkForestBuild measures Build of a 5 000-entry forest — the store
// fill and the tree sorts fanned out over GOMAXPROCS, what core.Build runs
// per partition. Run with -cpu 1,4,8 to see worker scaling.
func BenchmarkForestBuild(b *testing.B) {
	rng := xrand.New(1)
	const m, rMax = 256, 8
	sigs, ids := randSigs(rng, 5000, m, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(m, rMax, 8, ids, sigs)
	}
}

func TestTreeLeadingColumn(t *testing.T) {
	sigs := [][]uint64{
		{5, 1, 9, 2, 3, 4, 7, 8},
		{3, 1, 9, 2, 1, 4, 7, 8},
		{8, 1, 2, 2, 3, 4, 6, 8},
	}
	f := build(8, 2, 8, []uint32{0, 1, 2}, sigs) // 4 trees of depth 2
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
	if col := build(8, 2, 8, nil, nil).TreeLeadingColumn(0); col != nil {
		t.Fatalf("empty forest returned column %v", col)
	}
}
