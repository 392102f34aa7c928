package live

import (
	"bytes"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"lshensemble/internal/core"
	"lshensemble/internal/domain"
	"lshensemble/internal/xrand"
)

// checkPartFilter fills a filter sized the way fillLeads sizes it with perPart
// random valueBits-wide values for each of nParts partitions, fails on any
// inserted (partition, value) pair the filter does not report — partitions
// past 15 answer on bit p mod 16 — and returns the share of (absent value,
// filter bit) pairs it reports spuriously.
func checkPartFilter(t *testing.T, seed uint64, nParts, perPart, valueBits int) float64 {
	t.Helper()
	rng := xrand.New(seed)
	mask := uint64(1)<<valueBits - 1
	cols := make([][]uint64, nParts)
	held := make(map[uint64]bool)
	f := make(partFilter, partSlots(nParts*perPart))
	for p := range cols {
		for i := 0; i < perPart; i++ {
			v := rng.Uint64() & mask
			cols[p] = append(cols[p], v)
			held[v] = true
			f.add(p, v)
		}
	}
	for p, col := range cols {
		for _, v := range col {
			if f.partitions(v)>>(p&15)&1 == 0 {
				t.Fatalf("seed %d: value %#x of partition %d (of %d) is not reported: false negative", seed, v, p, nParts)
			}
		}
	}
	spurious, asked := 0, 0
	for i := 0; i < 4096; i++ {
		v := rng.Uint64() & mask
		if held[v] {
			continue
		}
		spurious += bits.OnesCount16(f.partitions(v))
		asked += min(nParts, 16)
	}
	if asked == 0 {
		return 0 // the columns hold every value of this width
	}
	return float64(spurious) / float64(asked)
}

// FuzzPartFilter: no shape of columns makes the sliced filter lose a value.
func FuzzPartFilter(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint16(512), uint8(61))
	f.Add(uint64(2), uint8(40), uint16(100), uint8(61)) // folds
	f.Add(uint64(3), uint8(1), uint16(1), uint8(61))    // one slot
	f.Add(uint64(4), uint8(16), uint16(300), uint8(8))  // 8-bit values: saturated
	f.Add(uint64(5), uint8(255), uint16(0), uint8(1))   // empty
	f.Fuzz(func(t *testing.T, seed uint64, nParts uint8, perPart uint16, valueBits uint8) {
		checkPartFilter(t, seed, int(nParts), int(perPart)%2048, 1+int(valueBits)%63)
	})
}

// TestPartFilterSpuriousRate measures the default geometry — 16 partitions of
// a 4 096-entry, 32-tree segment, one slot per value — against the 3 % per
// partition the planner's sizing comment promises, and a 40-partition fold,
// which shares bits and may only be sound.
func TestPartFilterSpuriousRate(t *testing.T) {
	if rate := checkPartFilter(t, 42, 16, 4096*32/16, 61); rate > 0.03 {
		t.Fatalf("spurious rate per partition %.4f, want at most 0.03", rate)
	} else {
		t.Logf("16 partitions: spurious rate per partition %.4f", rate)
	}
	t.Logf("40 partitions folded: spurious rate per bit %.4f", checkPartFilter(t, 43, 40, 4096*32/40, 61))
}

// partFilterIndex builds a planned index of four heap segments and a buffer
// at the given geometry, as a test fixture.
func partFilterIndex(t *testing.T, recs []domain.Record, parts int, sb core.SketchBackend) *Index {
	t.Helper()
	o := plannerOpts()
	o.MaxSegments, o.NumPartitions, o.Sketch = 64, parts, sb
	x, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Close)
	for i, r := range recs {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
		if i%60 == 59 && i < 240 {
			x.Flush()
		}
	}
	return x
}

// TestSegmentFiltersHoldEveryColumn: on real segments both leading-value
// filters report every value of every (partition, tree) column, and the ladder
// — whose rungs plan for themselves, so its sets carry no plan — collects the
// same ids in the same order under a segment's per-partition sets as under
// none.
func TestSegmentFiltersHoldEveryColumn(t *testing.T) {
	recs := fixture(t, 260, 31)
	for _, parts := range []int{1, 16, 40} {
		for _, sb := range []core.SketchBackend{core.Minwise64, core.Minwise32, core.Minwise16} {
			x := partFilterIndex(t, recs, parts, sb)
			sn := x.acquireSnap()
			s := x.acquireScratch()
			narrowed, gated := 0, 0
			for si, seg := range sn.segs {
				seg.idx.EachTreeLeading(func(p, tr int, col []uint64) {
					for _, v := range col {
						if !seg.meta.leads.MayContainHash(v) || seg.meta.parts.partitions(v)>>(p&15)&1 == 0 {
							t.Fatalf("parts=%d %s segment %d: value %#x of column (%d, %d) is missing from a filter", parts, sb, si, v, p, tr)
						}
					}
				})
				for i := 0; i < 40; i++ {
					r := recs[(i*7+si*60)%len(recs)]
					sig := r.Sig[:x.opts.NumHash]
					if i%2 == 1 {
						sig = halfRedrawn(sig, x.opts.RMax, uint64(i))
					}
					n := seg.meta.trees(s, sig, x.opts.RMax, sb.LeadMask())
					if n == 0 {
						continue
					}
					gated++
					sets, cols := seg.meta.partTrees(s, seg.idx, sig, x.opts.RMax, sb.LeadMask(), nil)
					if cols < n*seg.idx.NumPartitions() {
						narrowed++
					}
					for _, k := range []int{1, 10, 1000} {
						want, _ := seg.idx.QueryTopKIDs(nil, sig, r.Size, k)
						got, err := seg.idx.QueryTopKIDsMasked(nil, sig, r.Size, k, sets)
						if err != nil || !slices.Equal(got, want) {
							t.Fatalf("parts=%d %s segment %d query %d k=%d: ladder under the sets %v (%v), under none %v", parts, sb, si, i, k, got, err, want)
						}
					}
				}
			}
			x.releaseScratch(s)
			x.releaseSnap(sn)
			if gated == 0 {
				t.Fatalf("parts=%d %s: no query passed the lead gate, so the ladder was never checked", parts, sb)
			}
			if parts > 1 && sb == core.Minwise64 && narrowed == 0 {
				t.Fatalf("parts=%d %s: the sliced filter never ruled a partition out", parts, sb)
			}
		}
	}
}

// TestMmapFirstProbeBuildsFilterOnce: a segment mapped at boot has no sliced
// filter until it is probed; eight queries racing to be the first all see the
// one filter a single build produced, and answer what the heap-loaded index
// (whose filters were built at load) answers.
func TestMmapFirstProbeBuildsFilterOnce(t *testing.T) {
	recs := fixture(t, 300, 32)
	opts := plannerOpts()
	opts.NumPartitions = 16
	opts.ResultCacheSize = -1
	opts.DataDir, opts.Mmap = t.TempDir(), true
	src, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, recs, src)
	manifest := src.AppendBinary(nil)
	src.Close()

	load := func(mmap bool) *Index {
		o := opts
		o.Mmap = mmap
		x, err := Load(bytes.NewReader(manifest), o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(x.Close)
		return x
	}
	heap, mapped := load(false), load(true)
	for _, seg := range heap.snap.Load().segs {
		if seg.meta.parts == nil {
			t.Fatal("a heap-loaded segment waits for a probe to build its sliced filter")
		}
	}
	segs := mapped.snap.Load().segs
	for _, seg := range segs {
		if seg.back == nil || !seg.back.Mapped() {
			t.Skip("segments are not memory-mapped on this platform")
		}
		if seg.meta.parts != nil {
			t.Fatal("a mapped segment built its sliced filter at boot")
		}
	}
	const racers = 8
	queries := make([]domain.Record, 24)
	for i := range queries {
		queries[i] = recs[i*11]
	}
	want := make([][]string, len(queries))
	for i, q := range queries {
		want[i] = heap.Query(q.Sig, q.Size, 0.5)
	}
	seen := make([][]*uint16, racers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range queries {
				q := queries[(i+g)%len(queries)]
				if got := mapped.Query(q.Sig, q.Size, 0.5); !slices.Equal(got, want[(i+g)%len(queries)]) {
					t.Errorf("racer %d query %d: mapped %v, heap %v", g, i, got, want[(i+g)%len(queries)])
				}
			}
			for _, seg := range segs {
				// The racer's own probe ordered it after the build, if the
				// segment was probed at all.
				seg.meta.fillLeads(seg.idx, nil)
				seen[g] = append(seen[g], &seg.meta.parts[0])
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < racers; g++ {
		if !slices.Equal(seen[g], seen[0]) {
			t.Fatalf("racer %d saw other filters than racer 0: a segment was built twice", g)
		}
	}
	if st := mapped.Stats().Planner; st.ColumnsSkipped == 0 {
		t.Fatalf("the mapped index ruled no column out: %+v", st)
	}
}
