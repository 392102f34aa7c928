package live

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"lshensemble/internal/domain"
	"lshensemble/internal/xrand"
)

// checkShadow asserts the shadow-bit invariant on x's current snapshot: one
// bit per segment, and no segment whose bit is clear holds an entry the
// tombstones reject. It reports whether the snapshot has tombstones and a
// clear bit (a lookup the bits saved), and how many dead entries sit in
// shadowed segments.
func checkShadow(t *testing.T, x *Index, step string) (saved bool, dead int) {
	t.Helper()
	sn := x.snap.Load()
	if len(sn.shadow) != len(sn.segs) {
		t.Fatalf("%s: %d shadow bits for %d segments", step, len(sn.shadow), len(sn.segs))
	}
	for i, seg := range sn.segs {
		for id := 0; id < seg.idx.Len(); id++ {
			if sn.alive(seg.idx.Key(uint32(id)), seg.seqs[id]) {
				continue
			}
			if !sn.shadow[i] {
				t.Fatalf("%s: segment %d has a clear shadow bit and holds dead entry %q",
					step, i, seg.idx.Key(uint32(id)))
			}
			dead++
		}
		saved = saved || (!sn.shadow[i] && len(sn.tombs) > 0)
	}
	return saved, dead
}

// TestShadowBitsNeverHideADeadEntry drives a heap and a mapped index through a
// random sequence of adds, upserts, deletes, seals, merges, Compact and
// Save/Load, and checks the shadow-bit invariant after every step.
func TestShadowBitsNeverHideADeadEntry(t *testing.T) {
	for _, mmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("mmap=%v", mmap), func(t *testing.T) {
			recs := fixture(t, 400, 17)
			opts := liveOpts()
			if mmap {
				opts.DataDir, opts.Mmap = t.TempDir(), true
			}
			x, err := Build(recs[:100], opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { x.Close() }()
			rng := xrand.New(29)
			next, savedSteps, deadSeen := 100, 0, 0
			for step := 0; step < 300; step++ {
				var op string
				switch k := rng.Intn(20); {
				case k < 7 && next < len(recs):
					op = "add"
					if _, err := x.Add(recs[next]); err != nil {
						t.Fatal(err)
					}
					next++
				case k < 10:
					op = "upsert"
					r := recs[rng.Intn(next)]
					r.Sig = recs[rng.Intn(len(recs))].Sig
					if _, err := x.Add(r); err != nil {
						t.Fatal(err)
					}
				case k < 14:
					op = "delete"
					x.Delete(recs[rng.Intn(next)].Key)
				case k < 16:
					op = "seal"
					x.Flush()
				case k < 18:
					op = "merge"
					x.compactMu.Lock()
					if segs := x.snap.Load().segs; len(segs) >= 2 {
						x.rewrite(segs[:2], 0)
					}
					x.compactMu.Unlock()
				case k < 19:
					op = "compact"
					x.Compact()
				default:
					op = "save+load"
					img := x.AppendBinary(nil)
					x.Close()
					if x, err = Load(bytes.NewReader(img), opts); err != nil {
						t.Fatal(err)
					}
				}
				saved, dead := checkShadow(t, x, fmt.Sprintf("step %d (%s)", step, op))
				if saved {
					savedSteps++
				}
				deadSeen += dead
			}
			// Both sides of the bit must have been exercised: tombstones that
			// a clear bit kept out of some segment's lookups, and dead entries
			// that a set bit kept in.
			if savedSteps == 0 || deadSeen == 0 {
				t.Fatalf("sequence exercised too little: %d steps with a clear bit under tombstones, %d dead entries seen",
					savedSteps, deadSeen)
			}
		})
	}
}

// TestShadowBitsFollowTheKey pins the write path's bit updates: a tombstone
// for a buffered key leaves every bit as it was, and one for a sealed key,
// by Delete or by upsert, sets its segment's bit — in a copy, leaving the
// bits older snapshots read untouched.
func TestShadowBitsFollowTheKey(t *testing.T) {
	recs := fixture(t, 130, 23)
	x, err := Build(recs[:64], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	add := func(rs []domain.Record) {
		for _, r := range rs {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(recs[64:96])
	x.Flush()
	add(recs[96:])
	segs := x.snap.Load().segs
	if len(segs) != 2 {
		t.Fatalf("%d segments, want 2", len(segs))
	}
	bits := func() []bool { return slices.Clone(x.snap.Load().shadow) }
	if b := bits(); slices.Contains(b, true) {
		t.Fatalf("shadow %v before any tombstone, want all clear", b)
	}

	// Buffered keys that neither segment's key Bloom may hold: a Delete and an
	// upsert of them reach no segment.
	var buffered []domain.Record
	for _, r := range recs[96:] {
		if !mayHold(segs[0].meta.keys, r.Key) && !mayHold(segs[1].meta.keys, r.Key) {
			buffered = append(buffered, r)
		}
	}
	if len(buffered) < 2 {
		t.Fatalf("only %d buffered keys miss both key Blooms", len(buffered))
	}
	x.Delete(buffered[0].Key)
	up := buffered[1]
	up.Sig = recs[0].Sig
	add([]domain.Record{up})
	if b := bits(); slices.Contains(b, true) {
		t.Fatalf("shadow %v after tombstoning buffered keys, want all clear", b)
	}

	before := x.snap.Load()
	x.Delete(recs[3].Key) // sealed in segment 0
	if b := bits(); !b[0] || b[1] != mayHold(segs[1].meta.keys, recs[3].Key) {
		t.Fatalf("shadow %v after deleting a key of segment 0", b)
	}
	if slices.Contains(before.shadow, true) {
		t.Fatalf("the Delete changed the bits of the snapshot before it: %v", before.shadow)
	}
	up = recs[70] // sealed in segment 1
	up.Sig = recs[71].Sig
	add([]domain.Record{up})
	if b := bits(); !b[0] || !b[1] {
		t.Fatalf("shadow %v after upserting a key of segment 1, want both set", b)
	}
}

// TestTopKIgnoresTombstonesNoSegmentHolds builds two one-segment indexes from
// the same records; one of them also adds 30 keys to its buffer and deletes
// them again. No segment can hold those tombstones' keys, so they must not
// move a top-k answer: the segment is asked for k ids in both indexes, not
// for k plus the tombstone count in one of them.
func TestTopKIgnoresTombstonesNoSegmentHolds(t *testing.T) {
	recs := fixture(t, 530, 41)
	plain, err := Build(recs[:500], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	churned, err := Build(recs[:500], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer churned.Close()
	for _, r := range recs[500:] {
		if _, err := churned.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs[500:] {
		churned.Delete(r.Key)
	}
	sn := churned.snap.Load()
	if len(sn.segs) != 1 || len(sn.tombs) != 30 || sn.shadow[0] {
		t.Fatalf("%d segments, %d tombstones, shadow bits %v: want one unshadowed segment and 30 tombstones", len(sn.segs), len(sn.tombs), sn.shadow)
	}
	differ := 0
	for _, r := range recs[:500] {
		for _, k := range []int{1, 3, 5, 10} {
			if !slices.Equal(plain.QueryTopK(r.Sig, r.Size, k), churned.QueryTopK(r.Sig, r.Size, k)) {
				differ++
			}
		}
	}
	if differ != 0 {
		t.Fatalf("%d of 2000 top-k answers differ between the index and its twin with 30 buffered deletes", differ)
	}
}
