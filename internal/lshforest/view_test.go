package lshforest

import (
	"math/rand"
	"testing"
)

// buildRandomForest returns a forest over n random signatures and the
// signatures themselves (by id).
func buildRandomForest(t *testing.T, n, numHash, rMax int, seed int64) (*Forest, [][]uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]uint32, n)
	sigs := make([][]uint64, n)
	for i := range sigs {
		sig := make([]uint64, numHash)
		for j := range sig {
			sig[j] = rng.Uint64() >> 16 // narrow range → real collisions
		}
		ids[i], sigs[i] = uint32(i), sig
	}
	return build(numHash, rMax, 8, ids, sigs), sigs
}

// viewOf reassembles f over a serialized copy of its own flat arrays, the way
// a segment file hands them to FromViewBytes.
func viewOf(f *Forest) (*Forest, error) {
	store := make([]byte, f.StoreLenBytes())
	f.WriteStoreLE(store)
	trees := make([][]uint32, f.BMax())
	cols := make([][]byte, f.BMax())
	for tr := range trees {
		trees[tr] = f.Tree(tr)
		cols[tr] = make([]byte, f.Len()*f.Width())
		f.WriteTreeKeysLE(tr, cols[tr])
	}
	return FromViewBytes(f.NumHash(), f.RMax(), f.Width(), f.IDs(), store, trees, cols)
}

// TestFromViewQueryEquivalence rebuilds a forest from its own exported flat
// arrays and checks that every query answers identically — the exact
// contract segment-file loading relies on.
func TestFromViewQueryEquivalence(t *testing.T) {
	const n, numHash, rMax = 300, 32, 4
	f, sigs := buildRandomForest(t, n, numHash, rMax, 7)

	v, err := viewOf(f)
	if err != nil {
		t.Fatalf("FromViewBytes: %v", err)
	}
	if v.Len() != n {
		t.Fatalf("view Len=%d, want %d", v.Len(), n)
	}

	collect := func(fr *Forest, sig []uint64, b, r int) map[uint32]bool {
		got := map[uint32]bool{}
		fr.Query(sig, b, r, nil, func(id uint32) bool {
			got[id] = true
			return true
		})
		return got
	}
	for qi := 0; qi < 50; qi++ {
		sig := sigs[qi*5%n]
		for _, br := range [][2]int{{1, 1}, {4, 2}, {8, 4}, {f.BMax(), rMax}} {
			b, r := br[0], br[1]
			want := collect(f, sig, b, r)
			got := collect(v, sig, b, r)
			if len(got) != len(want) {
				t.Fatalf("query %d (b=%d r=%d): view found %d ids, original %d", qi, b, r, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("query %d (b=%d r=%d): view missed id %d", qi, b, r, id)
				}
			}
		}
	}
}

func TestFromViewEmpty(t *testing.T) {
	v, err := FromViewBytes(16, 4, 8, nil, nil, nil, nil)
	if err != nil {
		t.Fatalf("FromViewBytes empty: %v", err)
	}
	if v.Len() != 0 {
		t.Fatalf("empty view Len=%d", v.Len())
	}
	v.Query(make([]uint64, 16), 4, 4, nil, func(uint32) bool {
		t.Fatal("empty view yielded a match")
		return false
	})
}

func TestFromViewRejectsShapeMismatch(t *testing.T) {
	ids := []uint32{0, 1}
	if _, err := FromViewBytes(8, 4, 8, ids, make([]byte, 15*8), nil, nil); err == nil {
		t.Fatal("store length mismatch accepted")
	}
	if _, err := FromViewBytes(8, 4, 8, ids, make([]byte, 16*8), [][]uint32{{0, 1}}, [][]byte{make([]byte, 16)}); err == nil {
		t.Fatal("tree count mismatch accepted")
	}
}
