package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"lshensemble/internal/core"
	"lshensemble/internal/domain"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/minhash"
)

// halfRedrawn returns sig with every other tree's values replaced by ones no
// record carries: the query still collides through the trees it kept, and
// the leading-value filters can rule the others out.
func halfRedrawn(sig minhash.Signature, rMax int, salt uint64) minhash.Signature {
	out := slices.Clone(sig)
	for t := 0; t*rMax < len(out); t += 2 {
		for k := t * rMax; k < (t+1)*rMax; k++ {
			out[k] = (salt+uint64(k))*0x9E3779B97F4A7C15 | 1<<60
		}
	}
	return out
}

// bandsCollide reports whether any of the bands starting at the given
// signature offsets, compared at depth r, agree between the two signatures
// under sb's truncation — the band's lead under its lead mask, the rest under
// its mask: the LSH forest's collision condition for one entry, read straight
// from the full signatures.
func bandsCollide(a, b minhash.Signature, bands []int, r int, sb core.SketchBackend) bool {
	for _, off := range bands {
		match := true
		for k := off; k < off+r; k++ {
			mask := sb.Mask()
			if k == off {
				mask = sb.LeadMask()
			}
			if a[k]&mask != b[k]&mask {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// referenceBufferScan answers a query on x's buffer-only snapshot entry by
// entry: bandsCollide over every band the buffer's (b, r) probes, for every
// live buffered entry, in entry order. It shares no code with the lead
// columns, the scan over them or the buffer's filter.
func referenceBufferScan(x *Index, sig minhash.Signature, querySize int, tStar float64) []string {
	sn := x.acquireSnap()
	defer x.releaseSnap(sn)
	if len(sn.buf) == 0 || rangePruned(sn.bufMax, querySize, tStar) {
		return nil
	}
	p := x.bands.Optimize(float64(sn.bufMax), float64(querySize), tStar)
	var offs []int
	for b := 0; b < p.B; b++ {
		offs = append(offs, b*x.opts.RMax)
	}
	var keys []string
	for i, e := range sn.buf {
		if sn.alive(e.key, e.seq) && bandsCollide(sig, sn.sigs.widen(nil, i), offs, p.R, x.opts.Sketch) {
			keys = append(keys, e.key)
		}
	}
	return keys
}

// TestBufferScanMaskedEqualsUnmasked: the buffer scan restricted to the bands
// the buffer's leading-value filter lets through, and the scan over every
// band, must both return what the entry-by-entry reference returns, key for
// key and in order, for every sketch backend: on a buffer of more than 200
// entries (past the lead columns' first allocation and a doubling) with
// upserts and deletes in it, and again after a Save/Load round trip. Under
// minwise64 the filter's set is a proper subset for a half-redrawn query;
// under the narrow backends truncated leading values collide by chance, the
// set can only grow, and the answers still agree.
func TestBufferScanMaskedEqualsUnmasked(t *testing.T) {
	recs := fixture(t, 200, 21)
	for _, sb := range append([]core.SketchBackend{core.Minwise64}, narrowBackends...) {
		t.Run(sb.String(), func(t *testing.T) {
			withSketch := func(o Options) Options {
				o.Sketch = sb
				o.SealThreshold = 1 << 20 // everything stays buffered
				o.ResultCacheSize = -1
				return o
			}
			build := func(o Options) *Index {
				x, err := New(withSketch(o))
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					if _, err := x.Add(r); err != nil {
						t.Fatal(err)
					}
				}
				// Upserts: every seventh key takes another record's signature.
				for i := 3; i < len(recs); i += 7 {
					r := recs[(i+50)%len(recs)]
					r.Key = recs[i].Key
					if _, err := x.Add(r); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < len(recs); i += 9 {
					x.Delete(recs[i].Key)
				}
				return x
			}
			reload := func(x *Index, o Options) *Index {
				var b bytes.Buffer
				if err := x.Save(&b); err != nil {
					t.Fatal(err)
				}
				y, err := Load(&b, withSketch(o))
				if err != nil {
					t.Fatal(err)
				}
				return y
			}
			masked, plain := build(plannerOpts()), build(unprunedOpts())
			defer masked.Close()
			defer plain.Close()
			sn := masked.acquireSnap()
			defer masked.releaseSnap(sn)
			if sn.bufBloom == nil || len(sn.segs) != 0 || len(sn.buf) <= 2*firstArenaCap {
				t.Fatalf("fixture: want a buffer-only snapshot of over %d entries with a filter, got %d segments, %d entries, filter %v",
					2*firstArenaCap, len(sn.segs), len(sn.buf), sn.bufBloom != nil)
			}
			rMax, numTrees := masked.opts.RMax, masked.numTrees()
			set := make(lshforest.TreeSet, lshforest.TreeSetWords(numTrees))
			sumTrees := 0
			for i, r := range recs[:80] {
				sumTrees += leadTrees(set, sn.bufBloom, r.Sig[:masked.opts.NumHash], rMax, sb.LeadMask())
				sumTrees += leadTrees(set, sn.bufBloom, halfRedrawn(r.Sig, rMax, uint64(i))[:masked.opts.NumHash], rMax, sb.LeadMask())
			}
			check := func(stage string, masked, plain *Index) {
				t.Helper()
				answers := 0
				for i, r := range recs[:80] {
					for _, sig := range []minhash.Signature{r.Sig, halfRedrawn(r.Sig, rMax, uint64(i))} {
						for _, tStar := range []float64{0, 0.5, 1} {
							want := referenceBufferScan(plain, sig, r.Size, tStar)
							if got := plain.Query(sig, r.Size, tStar); !slices.Equal(got, want) {
								t.Fatalf("%s: %s query %d t*=%.1f: full scan %v, reference %v", stage, sb, i, tStar, got, want)
							}
							if got := masked.Query(sig, r.Size, tStar); !slices.Equal(got, want) {
								t.Fatalf("%s: %s query %d t*=%.1f: masked scan %v, reference %v", stage, sb, i, tStar, got, want)
							}
							answers += len(want)
						}
					}
				}
				if answers == 0 {
					t.Fatalf("%s: no query matched anything: the comparison shows nothing", stage)
				}
				if st := masked.Stats().Planner; st.BufferScans == 0 {
					t.Fatalf("%s: masked index never scanned its buffer: %+v", stage, st)
				}
			}
			check("built", masked, plain)
			lm, lp := reload(masked, plannerOpts()), reload(plain, unprunedOpts())
			defer lm.Close()
			defer lp.Close()
			check("loaded", lm, lp)
			// 160 sets: whole queries keep every tree, half-redrawn ones at
			// most half under a full-width store.
			if max := 80*numTrees + 80*numTrees/2; sb == core.Minwise64 && sumTrees > max {
				t.Fatalf("minwise64: filter let %d trees through, want at most %d — the mask never narrows", sumTrees, max)
			}
		})
	}
}

// TestShortQuerySignature: a query signature shorter than NumHash used to
// panic inside the probe (index out of range). The context-taking entry
// points now return core.ErrSignatureLength, the others an empty answer, and
// a batch answers the row with an empty row.
func TestShortQuerySignature(t *testing.T) {
	recs := fixture(t, 80, 22)
	x, err := Build(recs[:60], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, r := range recs[60:] { // a non-empty buffer too
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	q := recs[3]
	short := q.Sig[:100] // NumHash is 128
	ctx := context.Background()

	if _, err := x.QueryAppendContext(ctx, nil, short, q.Size, 0.5); !errors.Is(err, core.ErrSignatureLength) {
		t.Errorf("QueryAppendContext(short) error = %v, want ErrSignatureLength", err)
	}
	if got := x.Query(short, q.Size, 0.5); len(got) != 0 {
		t.Errorf("Query(short) = %v, want empty", got)
	}
	if _, err := x.QueryTopKContext(ctx, short, q.Size, 5); !errors.Is(err, core.ErrSignatureLength) {
		t.Errorf("QueryTopKContext(short) error = %v, want ErrSignatureLength", err)
	}
	if got := x.QueryTopK(short, q.Size, 5); len(got) != 0 {
		t.Errorf("QueryTopK(short) = %v, want empty", got)
	}
	rows, err := x.QueryBatchContext(ctx, []domain.BatchQuery{
		{Sig: short, Size: q.Size, Threshold: 0.5},
		{Sig: q.Sig, Size: q.Size, Threshold: 0.5},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0]) != 0 || !contains(rows[1], q.Key) {
		t.Errorf("batch rows = %v: want the short row empty and the full row answered", rows)
	}
}

// TestTreeCountersAccount: every probed segment splits its NumHash/RMax trees
// between TreesProbed and TreesSkipped, and the columns its plan probes
// between ColumnsProbed and ColumnsSkipped — per query in the trace, and
// summed in Stats — and a half-redrawn query really is spared trees, and a
// tree let through at most one column per partition.
func TestTreeCountersAccount(t *testing.T) {
	recs := fixture(t, 160, 23)
	opts := plannerOpts()
	opts.ResultCacheSize = -1
	opts.MaxSegments = 64
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for i, r := range recs {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
		if i%40 == 39 {
			x.Flush()
		}
	}
	numTrees := x.numTrees()
	var segs, probed, skipped, cols, colsSkipped uint64
	for i, r := range recs[:40] {
		sig := halfRedrawn(r.Sig, x.opts.RMax, uint64(i))
		var tr QueryTrace
		if _, err := x.QueryAppendContext(WithQueryTrace(context.Background(), &tr), nil, sig, r.Size, 0.5); err != nil {
			t.Fatal(err)
		}
		if tr.TreesProbed+tr.TreesSkipped != numTrees*tr.SegmentsProbed {
			t.Fatalf("query %d trace: %d probed + %d skipped trees over %d probed segments of %d trees", i, tr.TreesProbed, tr.TreesSkipped, tr.SegmentsProbed, numTrees)
		}
		if tr.SegmentsProbed > 0 && tr.TreesSkipped < numTrees/2*tr.SegmentsProbed/2 {
			t.Fatalf("query %d: half the trees are redrawn yet only %d of %d were skipped", i, tr.TreesSkipped, numTrees*tr.SegmentsProbed)
		}
		if tr.ColumnsProbed > tr.TreesProbed*x.opts.NumPartitions || (tr.SegmentsProbed > 0 && tr.ColumnsSkipped == 0) {
			t.Fatalf("query %d: %d columns probed, %d skipped for %d trees probed, %d skipped", i, tr.ColumnsProbed, tr.ColumnsSkipped, tr.TreesProbed, tr.TreesSkipped)
		}
		segs += uint64(tr.SegmentsProbed)
		probed += uint64(tr.TreesProbed)
		skipped += uint64(tr.TreesSkipped)
		cols += uint64(tr.ColumnsProbed)
		colsSkipped += uint64(tr.ColumnsSkipped)
	}
	if segs == 0 || skipped == 0 {
		t.Fatalf("nothing probed or nothing skipped: %d segments, %d trees skipped", segs, skipped)
	}
	if st := x.Stats().Planner; st.SegmentsProbed != segs || st.TreesProbed != probed || st.TreesSkipped != skipped ||
		st.ColumnsProbed != cols || st.ColumnsSkipped != colsSkipped {
		t.Fatalf("stats after the singles = %+v, traces sum to %d segments, %d trees probed, %d skipped, %d columns probed, %d skipped",
			st, segs, probed, skipped, cols, colsSkipped)
	}
}

// TestQueryShapesAgree: there is one read path, so the same 64 queries asked
// one by one, as one batch (at any worker count), and of an index with the
// planner off return identical rows — same keys, same order — and the first
// two move every planner counter by the same amount (result cache off), which
// a batch's trace reports too. Over heap and mmap segments, with tombstones in
// segments and buffer, a non-empty buffer, whole and half-redrawn signatures
// (proper tree subsets), and rows no query would serve; at 1, 16 and 40
// partitions (the last folds them onto the sliced filter's 16 bits) and on
// every backend.
func TestQueryShapesAgree(t *testing.T) {
	recs := fixture(t, 260, 24)
	for _, mmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("mmap=%v", mmap), func(t *testing.T) {
			for _, parts := range []int{1, 16, 40} {
				for _, sb := range append([]core.SketchBackend{core.Minwise64}, narrowBackends...) {
					t.Run(fmt.Sprintf("parts=%d/%s", parts, sb), func(t *testing.T) {
						queryShapesAgree(t, recs, mmap, parts, sb)
					})
				}
			}
		})
	}
}

func queryShapesAgree(t *testing.T, recs []domain.Record, mmap bool, parts int, sb core.SketchBackend) {
	build := func(o Options) *Index {
		o.MaxSegments = 64
		o.ResultCacheSize = -1
		o.NumPartitions, o.Sketch = parts, sb
		if mmap {
			o.DataDir, o.Mmap = t.TempDir(), true
		}
		x, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(x.Close)
		for i, r := range recs {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
			if i%50 == 49 && i < 240 {
				x.Flush()
			}
		}
		for i := 0; i < len(recs); i += 9 {
			x.Delete(recs[i].Key)
		}
		return x
	}
	x, plain := build(plannerOpts()), build(unprunedOpts())
	st := x.Stats()
	if len(st.Segments) != 4 || st.Buffered != 60 || st.Tombstones == 0 {
		t.Fatalf("fixture: %d segments, %d buffered, %d tombstones", len(st.Segments), st.Buffered, st.Tombstones)
	}
	if want := map[bool]string{false: "heap", true: "mmap"}[mmap]; st.SegmentDetail[0].Backing != want {
		t.Fatalf("fixture: segments served from %s, want %s", st.SegmentDetail[0].Backing, want)
	}
	if n := x.snap.Load().segs[0].idx.NumPartitions(); parts == 40 && n <= 16 {
		t.Fatalf("fixture: %d partitions in a segment, none folds onto another's filter bit", n)
	}

	var batch []domain.BatchQuery
	for i := 0; i < 64; i++ {
		r := recs[i*4]
		sig := r.Sig
		if i%2 == 1 {
			sig = halfRedrawn(sig, x.opts.RMax, uint64(i))
		}
		batch = append(batch, domain.BatchQuery{Sig: sig, Size: r.Size, Threshold: []float64{0, 0.5, 1, 1.7}[i%4]})
	}
	batch[10].Size = 0                  // no query serves these two:
	batch[11].Sig = batch[11].Sig[:100] // their rows stay empty
	singles := func(y *Index) (rows [][]string, sum QueryTrace) {
		for _, q := range batch {
			var tr QueryTrace
			// A short signature is the one error; its row is nil like the batch's.
			row, _ := y.QueryAppendContext(WithQueryTrace(context.Background(), &tr), nil, q.Sig, q.Size, q.Threshold)
			rows = append(rows, row)
			sum.SegmentsProbed += tr.SegmentsProbed
			sum.SegmentsRangePruned += tr.SegmentsRangePruned
			sum.SegmentsBloomPruned += tr.SegmentsBloomPruned
			sum.TreesProbed += tr.TreesProbed
			sum.TreesSkipped += tr.TreesSkipped
			sum.ColumnsProbed += tr.ColumnsProbed
			sum.ColumnsSkipped += tr.ColumnsSkipped
		}
		return rows, sum
	}
	moved := func(f func()) PlannerStats {
		b := x.Stats().Planner
		f()
		a := x.Stats().Planner
		return PlannerStats{
			SegmentsProbed:      a.SegmentsProbed - b.SegmentsProbed,
			SegmentsRangePruned: a.SegmentsRangePruned - b.SegmentsRangePruned,
			SegmentsBloomPruned: a.SegmentsBloomPruned - b.SegmentsBloomPruned,
			TreesProbed:         a.TreesProbed - b.TreesProbed,
			TreesSkipped:        a.TreesSkipped - b.TreesSkipped,
			ColumnsProbed:       a.ColumnsProbed - b.ColumnsProbed,
			ColumnsSkipped:      a.ColumnsSkipped - b.ColumnsSkipped,
			ResultHits:          a.ResultHits - b.ResultHits,
			ResultMisses:        a.ResultMisses - b.ResultMisses,
			TopKEarlyExits:      a.TopKEarlyExits - b.TopKEarlyExits,
			BufferScans:         a.BufferScans - b.BufferScans,
			BufferBloomPruned:   a.BufferBloomPruned - b.BufferBloomPruned,
		}
	}

	var want [][]string
	var sum QueryTrace
	bySingles := moved(func() { want, sum = singles(x) })
	if bySingles.SegmentsProbed == 0 || bySingles.ColumnsProbed == 0 || bySingles.BufferScans == 0 {
		t.Fatalf("fixture decides too little to compare: %+v", bySingles)
	}
	// The 62 × 4 segment decisions, as recorded before the range check and the
	// Bloom moved ahead of planning (see plannedEquivalentUnderChurn, whose
	// fixture range-prunes too): the reorder moved none to another counter.
	// Minwise16's 32-bit leads decide as minwise32's.
	wantSegmentDecisions(t, bySingles, map[core.SketchBackend][3]uint64{
		core.Minwise64: {94, 0, 154}, core.Minwise32: {94, 0, 154},
		core.Minwise16: {94, 0, 154},
	}[sb])
	// Full-width leading values let both filters bite: whole segments and
	// trees fall to the Bloom and, where there is more than one partition,
	// more columns than the skipped trees account for fall to the sliced one.
	if sb == core.Minwise64 && (bySingles.SegmentsBloomPruned == 0 || bySingles.TreesSkipped == 0 ||
		(parts > 1 && bySingles.ColumnsSkipped*bySingles.TreesProbed <= bySingles.ColumnsProbed*bySingles.TreesSkipped)) {
		t.Fatalf("the leading-value filters rule out too little: %+v", bySingles)
	}
	answers := 0
	for _, row := range want {
		answers += len(row)
	}
	if answers == 0 || len(want[10]) != 0 || len(want[11]) != 0 {
		t.Fatalf("fixture: %d answers, unservable rows %v %v", answers, want[10], want[11])
	}
	for _, workers := range []int{1, 2, 5} {
		var got [][]string
		var tr QueryTrace
		byBatch := moved(func() {
			var err error
			if got, err = x.QueryBatchContext(WithQueryTrace(context.Background(), &tr), batch, workers); err != nil {
				t.Fatal(err)
			}
		})
		for i := range batch {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d row %d: batch %v, single %v", workers, i, got[i], want[i])
			}
		}
		if byBatch != bySingles {
			t.Fatalf("workers=%d: the batch moved the planner counters by %+v, the singles by %+v", workers, byBatch, bySingles)
		}
		if tr.SegmentsProbed != sum.SegmentsProbed || tr.SegmentsRangePruned != sum.SegmentsRangePruned ||
			tr.SegmentsBloomPruned != sum.SegmentsBloomPruned || tr.TreesProbed != sum.TreesProbed ||
			tr.TreesSkipped != sum.TreesSkipped || tr.ColumnsProbed != sum.ColumnsProbed ||
			tr.ColumnsSkipped != sum.ColumnsSkipped || !tr.BufferScanned || tr.ResultCacheHit ||
			tr.Segments != 4 || tr.Buffered != 60 {
			t.Fatalf("workers=%d: batch trace %+v, single traces sum to %+v", workers, tr, sum)
		}
	}
	ref, _ := singles(plain)
	refBatch := plain.QueryBatch(batch, 2)
	for i := range batch {
		if !slices.Equal(ref[i], want[i]) || !slices.Equal(refBatch[i], want[i]) {
			t.Fatalf("row %d: planned %v, unpruned single %v, unpruned batch %v", i, want[i], ref[i], refBatch[i])
		}
	}
}
