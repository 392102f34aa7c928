package live

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"lshensemble/internal/domain"
)

// TestSealDropsInertTombstones: a seal sweeps the tombstones exactly. The
// older sealed segment holds the minimum seq, so no bound on that minimum
// can retire the tombstone of a key added and deleted after it; the sweep
// sees that no remaining entry is shadowed by it and drops it, and keeps the
// one that still shadows a sealed entry.
func TestSealDropsInertTombstones(t *testing.T) {
	recs := fixture(t, 60, 43)
	x, err := Build(recs[:50], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if _, err := x.Add(recs[50]); err != nil {
		t.Fatal(err)
	}
	x.Delete(recs[50].Key)
	x.Flush()
	if st := x.Stats(); st.Tombstones != 0 || len(x.snap.Load().tombs) != 0 {
		t.Fatalf("after the seal: %d tombstones, snapshot %v; want none", st.Tombstones, x.snap.Load().tombs)
	}

	x.Delete(recs[3].Key) // sealed in the first segment
	if _, err := x.Add(recs[51]); err != nil {
		t.Fatal(err)
	}
	x.Flush()
	if tombs := x.snap.Load().tombs; len(tombs) != 1 || tombs[recs[3].Key] == 0 {
		t.Fatalf("after the second seal: tombstones %v, want only %q's", tombs, recs[3].Key)
	}
	if contains(x.Query(recs[3].Sig, recs[3].Size, 1.0), recs[3].Key) {
		t.Fatalf("deleted key %q came back", recs[3].Key)
	}
}

// TestCompactBuildsOnce: Compact over sealed segments and a non-empty buffer
// is one rewrite, so it spills exactly one segment file, and that segment is
// the one a fresh Build over the survivors (in mutation order) makes.
func TestCompactBuildsOnce(t *testing.T) {
	recs := fixture(t, 130, 47)
	opts := liveOpts()
	opts.DataDir = t.TempDir()
	x, err := Build(recs[:60], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	add := func(rs ...domain.Record) {
		for _, r := range rs {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(recs[60:100]...)
	x.Flush()
	add(recs[100:]...)
	up := recs[20]
	up.Sig = recs[0].Sig
	add(up)
	for _, i := range []int{5, 70, 110} { // sealed, sealed, buffered
		x.Delete(recs[i].Key)
	}
	var survivors []domain.Record
	for i, r := range recs {
		if i != 5 && i != 20 && i != 70 && i != 110 {
			survivors = append(survivors, r)
		}
	}
	survivors = append(survivors, up)

	before, st := x.nextSegID.Load(), x.Stats()
	if len(st.Segments) < 1 || st.Buffered == 0 {
		t.Fatalf("fixture: %d segments, %d buffered", len(st.Segments), st.Buffered)
	}
	x.Compact()
	if got := x.nextSegID.Load() - before; got != 1 {
		t.Fatalf("Compact spilled %d segment files, want 1", got)
	}
	after := x.Stats()
	if after.Seals != st.Seals+1 || after.Merges != st.Merges+1 || after.Tombstones != 0 || after.Buffered != 0 {
		t.Fatalf("after Compact: %+v", after)
	}
	sn := x.snap.Load()
	if len(sn.segs) != 1 {
		t.Fatalf("%d segments after Compact", len(sn.segs))
	}
	got := sn.segs[0]
	for id, seq := range got.seqs {
		if want := x.keySeq[got.idx.Key(uint32(id))]; seq != want {
			t.Fatalf("entry %d: seq %d, the key's is %d", id, seq, want)
		}
	}
	fresh, err := Build(survivors, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	f := fresh.snap.Load().segs[0]
	// A fresh Build numbers its entries from 1: give its segment the
	// compacted seqs, which the loop above checked, and compare the rest.
	if !slices.Equal(segmentImage(got), segmentImage(&segment{idx: f.idx, seqs: got.seqs, meta: f.meta})) {
		t.Fatal("the compacted segment's image differs from a fresh Build over the survivors")
	}
}

// TestUnsweptKeepsANewerTombstone pins the drop under the writer lock: a
// tombstone the sweep found inert goes only while its seq is the one the
// sweep saw. A key deleted again after the sweep keeps its newer tombstone,
// which shadows the entry the re-add buffered.
func TestUnsweptKeepsANewerTombstone(t *testing.T) {
	recs := fixture(t, 40, 53)
	x, err := Build(recs, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	x.Delete(recs[1].Key)
	x.Delete(recs[2].Key)
	sn := x.snap.Load()
	if kept := sweep(sn.tombs, sn.segs, nil); len(kept) != 0 {
		t.Fatalf("sweep over the segment that holds both keys swept %v", kept)
	}
	swept := sweep(sn.tombs, nil, nil) // as when that segment is the victim
	if len(swept) != 2 {
		t.Fatalf("swept %v, want both tombstones", swept)
	}

	if _, err := x.Add(recs[1]); err != nil {
		t.Fatal(err)
	}
	x.Delete(recs[1].Key)
	cur := x.snap.Load().tombs
	got := unswept(cur, swept)
	if len(got) != 1 || got[recs[1].Key] != cur[recs[1].Key] || got[recs[1].Key] == sn.tombs[recs[1].Key] {
		t.Fatalf("unswept %v from %v (swept %v): want only %q's newer tombstone", got, cur, swept, recs[1].Key)
	}
	if len(cur) != 2 {
		t.Fatalf("unswept edited the published map: %v", cur)
	}
}

// BenchmarkDeleteDuringMerge holds T tombstones on keys of a large sealed
// segment that no merge touches. Each op re-adds one of those keys and
// deletes it again (the tombstone count stays T) while another goroutine
// seals the buffer and merges every other segment into one, over and over.
// delete-ns/op and delete-p99-ns time the Delete alone, the wait for the
// writer lock included; seal-ns is the compactor's mean time per seal.
func BenchmarkDeleteDuringMerge(b *testing.B) {
	recs := fixture(b, 8000, 61)
	for _, T := range []int{100, 1000} {
		b.Run(fmt.Sprintf("T=%d", T), func(b *testing.B) {
			x, err := Build(recs, liveOpts()) // manual: only the goroutine below seals
			if err != nil {
				b.Fatal(err)
			}
			defer x.Close()
			keys := recs[:T]
			for _, r := range keys {
				x.Delete(r.Key)
			}
			stop, done := make(chan struct{}), make(chan struct{})
			var sealTime time.Duration
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					start := time.Now()
					x.Flush()
					sealTime += time.Since(start)
					x.compactMu.Lock()
					if segs := x.snap.Load().segs; len(segs) > 1 {
						x.rewrite(segs[1:], 0)
					}
					x.compactMu.Unlock()
				}
			}()
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range lat {
				r := keys[i%T]
				if _, err := x.Add(r); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				x.Delete(r.Key)
				lat[i] = time.Since(start)
			}
			b.StopTimer()
			close(stop)
			<-done
			var sum time.Duration
			for _, d := range lat {
				sum += d
			}
			slices.Sort(lat)
			b.ReportMetric(float64(sum.Nanoseconds())/float64(b.N), "delete-ns/op")
			b.ReportMetric(float64(lat[b.N*99/100].Nanoseconds()), "delete-p99-ns")
			if seals := x.Stats().Seals; seals > 0 {
				b.ReportMetric(float64(sealTime.Nanoseconds())/float64(seals), "seal-ns")
			}
		})
	}
}
