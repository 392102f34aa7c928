package lshforest

import (
	"testing"

	"lshensemble/internal/xrand"
)

// TestIndexParallelMatchesSerial rebuilds the same forest serially and with
// worker fan-out and requires bit-identical trees: the per-tree jobs are
// deterministic, so parallelism must not change any probe result.
func TestIndexParallelMatchesSerial(t *testing.T) {
	rng := xrand.New(7)
	const m, rMax = 16, 4
	sigs, ids := randSigs(rng, 500, m, 3) // small value range → heavy tie-break recursion
	serial := New(m, rMax)
	parallel := New(m, rMax)
	for i := range sigs {
		serial.Add(ids[i], sigs[i])
		parallel.Add(ids[i], sigs[i])
	}
	serial.Index()
	for _, workers := range []int{2, 3, 8, 64} {
		parallel.indexed = false
		parallel.IndexParallel(workers)
		if !parallel.Indexed() {
			t.Fatalf("workers=%d: forest not indexed", workers)
		}
		for tr := range serial.trees {
			if len(serial.trees[tr]) != len(parallel.trees[tr]) {
				t.Fatalf("workers=%d tree %d: length %d != %d",
					workers, tr, len(parallel.trees[tr]), len(serial.trees[tr]))
			}
			sCol, pCol := serial.TreeLeadingColumn(tr), parallel.TreeLeadingColumn(tr)
			for i := range serial.trees[tr] {
				if serial.trees[tr][i] != parallel.trees[tr][i] {
					t.Fatalf("workers=%d tree %d slot %d: order %d != %d",
						workers, tr, i, parallel.trees[tr][i], serial.trees[tr][i])
				}
				if sCol[i] != pCol[i] {
					t.Fatalf("workers=%d tree %d slot %d: key mismatch", workers, tr, i)
				}
			}
		}
	}
}

// TestIndexParallelEmpty exercises the empty-forest fast path under both
// entry points.
func TestIndexParallelEmpty(t *testing.T) {
	f := New(8, 2)
	f.IndexParallel(4)
	if !f.Indexed() {
		t.Fatal("empty forest not marked indexed")
	}
	f.Query(make([]uint64, 8), 1, 1, nil, func(id uint32) bool {
		t.Fatalf("empty forest reported id %d", id)
		return false
	})
}

// TestReserve checks that Reserve pre-allocates exactly once and preserves
// existing entries.
func TestReserve(t *testing.T) {
	const m, rMax = 8, 2
	f := New(m, rMax)
	sig := make([]uint64, m)
	for k := range sig {
		sig[k] = uint64(k)
	}
	f.Add(1, sig)
	f.Reserve(100)
	ts := f.st.(*tstore[uint64])
	if cap(f.ids) < 100 || cap(ts.store) < 100*m {
		t.Fatalf("Reserve(100): cap(ids)=%d cap(store)=%d", cap(f.ids), cap(ts.store))
	}
	if f.Len() != 1 {
		t.Fatalf("Reserve dropped entries: len %d", f.Len())
	}
	base := &ts.store[0]
	for i := 2; i <= 100; i++ {
		f.Add(uint32(i), sig)
	}
	if &ts.store[0] != base {
		t.Fatal("adds within reserved capacity reallocated the store")
	}
	f.Index()
	got := 0
	f.Query(sig, 1, rMax, nil, func(id uint32) bool { got++; return true })
	if got != 100 {
		t.Fatalf("got %d matches, want 100", got)
	}
	// Reserving less than the current length must be a no-op.
	f.Reserve(10)
	if f.Len() != 100 {
		t.Fatalf("Reserve(10) after 100 adds: len %d", f.Len())
	}
}
