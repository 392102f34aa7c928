package lshforest

import (
	"slices"
	"testing"

	"lshensemble/internal/xrand"
)

// poisonTree drops tree t's leading column, so any probe that touches the
// tree indexes a nil slice and panics.
func (ts *tstore[E]) poisonTree(t int) { ts.treeKeys[t] = nil }

// collectQuery returns the id sequence Query reports, occurrences and order
// included.
func collectQuery(f *Forest, sig []uint64, b, r int, trees TreeSet) []uint32 {
	var out []uint32
	f.Query(sig, b, r, trees, func(id uint32) bool {
		out = append(out, id)
		return true
	})
	return out
}

// checkTreeSetQuery builds a random forest from the seed and asserts the
// TreeSet contract on one random query: restricted to exactly the trees whose
// leading column holds the query's leading value, Query reports the very
// sequence the unrestricted probe reports — also with extra trees in the set
// (what a Bloom false positive adds) — and touches no tree outside the set.
func checkTreeSetQuery(t *testing.T, seed uint64, widthSel, shapeSel, bSel, rSel uint8) {
	shapes := [...][2]int{{32, 4}, {64, 8}, {256, 2}, {24, 5}, {130, 1}}
	width := [...]int{8, 4, 2, 1}[widthSel%4]
	numHash, rMax := shapes[int(shapeSel)%len(shapes)][0], shapes[int(shapeSel)%len(shapes)][1]
	rng := xrand.New(seed)
	// Small value ranges make leading values (and whole bands) collide; the
	// wide one leaves most trees without a match.
	valueRange := [...]uint64{3, 40, 1 << 20}[rng.Intn(3)]
	n := 1 + rng.Intn(200)
	sigs, ids := randSigs(rng, n, numHash, valueRange)
	f := build(numHash, rMax, width, ids, sigs)
	bMax := f.BMax()
	b, r := 1+int(bSel)%bMax, 1+int(rSel)%rMax

	// The query: a stored signature with some trees' values redrawn, so a
	// few trees match deep, some only on the leading value, some not at all.
	q := slices.Clone(sigs[rng.Intn(n)])
	for k := range q {
		if rng.Intn(3) == 0 {
			q[k] = rng.Uint64() % valueRange
		}
	}

	mask := ^uint64(0)
	if width < 8 {
		mask = 1<<(8*uint(width)) - 1
	}
	exact := make(TreeSet, TreeSetWords(bMax))
	wider := make(TreeSet, TreeSetWords(bMax))
	for tr := 0; tr < bMax; tr++ {
		if _, ok := slices.BinarySearch(f.TreeLeadingColumn(tr), q[tr*rMax]&mask); ok {
			exact.Add(tr)
			wider.Add(tr)
		} else if rng.Intn(4) == 0 {
			wider.Add(tr)
		}
	}

	want := collectQuery(f, q, b, r, nil)
	if got := collectQuery(f, q, b, r, wider); !slices.Equal(got, want) {
		t.Fatalf("width %d shape %dx%d (b=%d r=%d): superset-restricted query = %v, unrestricted = %v", width, numHash, rMax, b, r, got, want)
	}
	// From here on, touching a tree outside the exact set panics.
	for tr := 0; tr < bMax; tr++ {
		if !exact.Has(tr) {
			f.trees[tr] = nil
			f.st.(interface{ poisonTree(int) }).poisonTree(tr)
		}
	}
	if got := collectQuery(f, q, b, r, exact); !slices.Equal(got, want) {
		t.Fatalf("width %d shape %dx%d (b=%d r=%d): restricted query = %v, unrestricted = %v", width, numHash, rMax, b, r, got, want)
	}
	if !slices.ContainsFunc(exact, func(w uint64) bool { return w != 0 }) && len(want) != 0 {
		t.Fatalf("empty tree set but the unrestricted probe found %v", want)
	}
}

// FuzzQueryTreeSet is the test that fails if the per-tree mask ever drops a
// candidate. Its seed corpus — every store width × every shape, including the
// 128-tree NumHash 256 / RMax 2 forest and a 130-tree one whose set spans
// three words — runs under plain `go test`.
func FuzzQueryTreeSet(f *testing.F) {
	for widthSel := uint8(0); widthSel < 4; widthSel++ {
		for shapeSel := uint8(0); shapeSel < 5; shapeSel++ {
			for i := uint8(0); i < 6; i++ {
				f.Add(uint64(widthSel)<<16|uint64(shapeSel)<<8|uint64(i), widthSel, shapeSel, 255-i*40, i)
			}
		}
	}
	f.Fuzz(checkTreeSetQuery)
}

func TestQueryTreeSetTooShortPanics(t *testing.T) {
	f := build(130, 1, 8, []uint32{0}, [][]uint64{make([]uint64, 130)})
	defer func() {
		if recover() == nil {
			t.Fatal("Query accepted a 1-word set for 130 trees")
		}
	}()
	f.Query(make([]uint64, 130), 130, 1, make(TreeSet, 1), func(uint32) bool { return true })
}
