package lshforest

import (
	"runtime"
	"slices"
	"testing"

	"lshensemble/internal/xrand"
)

// TestIndexParallelMatchesSerial builds the same forest at GOMAXPROCS 1 and
// with worker fan-out and requires bit-identical trees: the per-tree sorts
// are deterministic, so parallelism must not change any probe result.
func TestIndexParallelMatchesSerial(t *testing.T) {
	rng := xrand.New(7)
	const m, rMax = 16, 4
	sigs, ids := randSigs(rng, 500, m, 3) // small value range → heavy tie-break recursion
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := build(m, rMax, 8, ids, sigs)
	for _, procs := range []int{2, 3, 4, 64} {
		runtime.GOMAXPROCS(procs)
		parallel := build(m, rMax, 8, ids, sigs)
		for tr := range serial.trees {
			if !slices.Equal(serial.Tree(tr), parallel.Tree(tr)) {
				t.Fatalf("GOMAXPROCS=%d tree %d: order differs from GOMAXPROCS=1", procs, tr)
			}
			if !slices.Equal(serial.TreeLeadingColumn(tr), parallel.TreeLeadingColumn(tr)) {
				t.Fatalf("GOMAXPROCS=%d tree %d: leading column differs from GOMAXPROCS=1", procs, tr)
			}
		}
	}
}

// TestIndexParallelEmpty builds an empty forest with workers available: it
// allocates no trees and answers nothing.
func TestIndexParallelEmpty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f := build(8, 2, 8, nil, nil)
	if f.trees != nil || f.Tree(0) != nil {
		t.Fatal("empty forest allocated trees")
	}
	f.Query(make([]uint64, 8), 1, 1, nil, func(id uint32) bool {
		t.Fatalf("empty forest reported id %d", id)
		return false
	})
}
