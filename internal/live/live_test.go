package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"lshensemble/internal/core"
	"lshensemble/internal/datagen"
	"lshensemble/internal/domain"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/minhash"
)

// liveOpts is the small-scale configuration the tests use: tiny seal
// threshold so a handful of adds exercise sealing, manual compaction so
// tests control timing exactly.
func liveOpts() Options {
	return Options{
		Options:          core.Options{NumHash: 128, RMax: 4, NumPartitions: 4},
		SealThreshold:    32,
		MaxSegments:      3,
		ManualCompaction: true,
	}
}

// fixture builds n records with unique keys over the open-data generator.
func fixture(t testing.TB, n int, seed uint64) []domain.Record {
	t.Helper()
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: n, Seed: seed})
	h := minhash.NewHasher(128, seed)
	return datagen.Records(corpus, h)
}

func sortedKeys(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

func equalKeySets(a, b []string) bool {
	a, b = sortedKeys(a), sortedKeys(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBuildAndSelfRetrieval(t *testing.T) {
	recs := fixture(t, 200, 1)
	x, err := Build(recs, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if x.Len() != 200 {
		t.Fatalf("Len = %d, want 200", x.Len())
	}
	for _, r := range recs[:50] {
		res := x.Query(r.Sig, r.Size, 1.0)
		if !contains(res, r.Key) {
			t.Fatalf("%s not self-retrieved", r.Key)
		}
	}
}

func contains(keys []string, k string) bool {
	for _, key := range keys {
		if key == k {
			return true
		}
	}
	return false
}

func TestBufferedAddsAreQueryable(t *testing.T) {
	recs := fixture(t, 120, 2)
	x, err := Build(recs[:60], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, r := range recs[60:] {
		if replaced, err := x.Add(r); err != nil || replaced {
			t.Fatalf("Add(%s): replaced=%v err=%v", r.Key, replaced, err)
		}
	}
	if x.Len() != 120 {
		t.Fatalf("Len = %d, want 120", x.Len())
	}
	// No Flush: the new records live in the buffer and must still be found
	// by the banding scan.
	for _, r := range recs[60:] {
		if !contains(x.Query(r.Sig, r.Size, 1.0), r.Key) {
			t.Fatalf("buffered %s not retrieved", r.Key)
		}
	}
	// Sealing must keep them retrievable.
	x.Flush()
	if st := x.Stats(); st.Buffered != 0 || len(st.Segments) != 2 {
		t.Fatalf("after Flush: %+v", st)
	}
	for _, r := range recs[60:] {
		if !contains(x.Query(r.Sig, r.Size, 1.0), r.Key) {
			t.Fatalf("sealed %s not retrieved", r.Key)
		}
	}
}

func TestUpsertReplaces(t *testing.T) {
	recs := fixture(t, 80, 3)
	x, err := Build(recs, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// Replace record 0 with record 1's contents under record 0's key: a
	// query for record 1's values must now return key 0 exactly once, and a
	// query for record 0's old values must not (unless they genuinely
	// collide with the new signature).
	old, repl := recs[0], recs[1]
	if replaced, err := x.Add(domain.Record{Key: old.Key, Size: repl.Size, Sig: repl.Sig}); err != nil || !replaced {
		t.Fatalf("upsert: replaced=%v err=%v", replaced, err)
	}
	if x.Len() != 80 {
		t.Fatalf("Len changed on upsert: %d", x.Len())
	}
	res := x.Query(repl.Sig, repl.Size, 1.0)
	n := 0
	for _, k := range res {
		if k == old.Key {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("replaced key appears %d times, want exactly once: %v", n, res)
	}
	// Upserting the same key again while the old version sits in a sealed
	// segment and the new one in the buffer must still yield one entry.
	if _, err := x.Add(domain.Record{Key: old.Key, Size: repl.Size, Sig: repl.Sig}); err != nil {
		t.Fatal(err)
	}
	x.Flush()
	res = x.Query(repl.Sig, repl.Size, 1.0)
	n = 0
	for _, k := range res {
		if k == old.Key {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("after reflush, replaced key appears %d times: %v", n, res)
	}
}

func TestDeleteHidesImmediately(t *testing.T) {
	recs := fixture(t, 100, 4)
	x, err := Build(recs[:80], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, r := range recs[80:] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	// Delete one sealed entry and one buffered entry.
	sealed, buffered := recs[10], recs[90]
	for _, r := range []domain.Record{sealed, buffered} {
		if !x.Delete(r.Key) {
			t.Fatalf("Delete(%s) = false", r.Key)
		}
		if contains(x.Query(r.Sig, r.Size, 1.0), r.Key) {
			t.Fatalf("deleted %s still retrieved", r.Key)
		}
	}
	if x.Delete(sealed.Key) {
		t.Fatal("double delete reported true")
	}
	if x.Delete("no-such-key") {
		t.Fatal("deleting unknown key reported true")
	}
	if x.Len() != 98 {
		t.Fatalf("Len = %d, want 98", x.Len())
	}
	// A deleted key can be re-added and becomes visible again.
	if replaced, err := x.Add(sealed); err != nil || replaced {
		t.Fatalf("re-add: replaced=%v err=%v", replaced, err)
	}
	if !contains(x.Query(sealed.Sig, sealed.Size, 1.0), sealed.Key) {
		t.Fatalf("re-added %s not retrieved", sealed.Key)
	}
}

// TestCompactedEquivalentToFreshBuild is the core correctness claim:
// after full compaction, the live index is *bit-equivalent* to a fresh
// core.Build over the surviving records (live set minus tombstones, in
// mutation order) — same serialized bytes, hence identical answers to every
// query.
func TestCompactedEquivalentToFreshBuild(t *testing.T) {
	recs := fixture(t, 300, 5)
	x, err := Build(recs[:150], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// A churny history: adds in waves with interleaved deletes, replacements
	// and seals, ending with several segments plus a non-empty buffer.
	survivors := make(map[string]domain.Record, len(recs))
	order := []string{}
	note := func(r domain.Record) {
		if _, ok := survivors[r.Key]; !ok {
			order = append(order, r.Key)
		} else {
			// replaced: moves to the end of mutation order
			for i, k := range order {
				if k == r.Key {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
			order = append(order, r.Key)
		}
		survivors[r.Key] = r
	}
	drop := func(key string) {
		delete(survivors, key)
		for i, k := range order {
			if k == key {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
	}
	for _, r := range recs[:150] {
		note(r)
	}
	for wave := 0; wave < 3; wave++ {
		for i := 150 + wave*50; i < 200+wave*50; i++ {
			if _, err := x.Add(recs[i]); err != nil {
				t.Fatal(err)
			}
			note(recs[i])
		}
		for i := wave * 40; i < wave*40+20; i++ {
			key := recs[i].Key
			if x.Delete(key) {
				drop(key)
			}
		}
		// Replace a few entries with fresh signatures.
		for i := 100 + wave; i < 110+wave; i += 3 {
			r := recs[i]
			if _, ok := survivors[r.Key]; !ok {
				continue
			}
			r2 := domain.Record{Key: r.Key, Size: recs[i+1].Size, Sig: recs[i+1].Sig}
			if _, err := x.Add(r2); err != nil {
				t.Fatal(err)
			}
			note(r2)
		}
		if wave < 2 {
			x.Flush()
		}
	}
	if len(survivors) != x.Len() {
		t.Fatalf("model has %d live domains, index %d", len(survivors), x.Len())
	}

	x.Compact()
	st := x.Stats()
	if len(st.Segments) != 1 || st.Buffered != 0 || st.Tombstones != 0 {
		t.Fatalf("after Compact: %+v", st)
	}

	want := make([]domain.Record, 0, len(order))
	for _, k := range order {
		r := survivors[k]
		// Match Add's signature clamp so the reference build sees identical
		// inputs.
		r.Sig = r.Sig[:x.opts.NumHash]
		want = append(want, r)
	}
	ref, err := core.Build(want, x.opts.Options)
	if err != nil {
		t.Fatal(err)
	}
	sn := x.snap.Load()
	got := sn.segs[0].idx.AppendBinary(nil)
	if !bytes.Equal(got, ref.AppendBinary(nil)) {
		t.Fatal("compacted segment is not bit-identical to a fresh core.Build over the survivors")
	}
	// And the public query path agrees with the reference for a spread of
	// queries and thresholds.
	for qi := 0; qi < 60; qi += 7 {
		r := recs[qi]
		for _, tStar := range []float64{0.3, 0.6, 0.9} {
			ids, err := ref.QueryIDsAppend(nil, r.Sig, r.Size, tStar)
			if err != nil {
				t.Fatal(err)
			}
			refKeys := make([]string, len(ids))
			for i, id := range ids {
				refKeys[i] = ref.Key(id)
			}
			live := x.Query(r.Sig, r.Size, tStar)
			if !equalKeySets(refKeys, live) {
				t.Fatalf("query %d t*=%v: live %v != ref %v", qi, tStar, sortedKeys(live), sortedKeys(refKeys))
			}
		}
	}
}

func TestMergeKeepsAnswers(t *testing.T) {
	recs := fixture(t, 240, 6)
	opts := liveOpts()
	x, err := Build(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// Seal six small segments.
	for s := 0; s < 6; s++ {
		for _, r := range recs[s*40 : (s+1)*40] {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		x.Flush()
	}
	// Delete a few entries spread across segments.
	for i := 0; i < 240; i += 17 {
		x.Delete(recs[i].Key)
	}
	before := make([][]string, 24)
	for i := range before {
		r := recs[i*10]
		before[i] = x.Query(r.Sig, r.Size, 1.0)
	}
	// Drive merges until within MaxSegments.
	x.compactMu.Lock()
	merges := 0
	for x.mergeIfCrowded() {
		merges++
	}
	x.compactMu.Unlock()
	if merges == 0 {
		t.Fatal("no merges ran with 6 segments and MaxSegments=3")
	}
	st := x.Stats()
	if len(st.Segments) > opts.MaxSegments {
		t.Fatalf("still %d segments after merging", len(st.Segments))
	}
	if st.Merges != uint64(merges) {
		t.Fatalf("Stats.Merges = %d, want %d", st.Merges, merges)
	}
	// Self-retrieval at t*=1.0 must be preserved exactly: each surviving
	// record still collides with itself in every band, and dead entries stay
	// hidden. (Weaker-threshold candidate sets may legitimately change when
	// partition bounds change.)
	for i := range before {
		r := recs[i*10]
		after := x.Query(r.Sig, r.Size, 1.0)
		wantSelf := i*10%17 != 0 // deleted every 17th
		if got := contains(after, r.Key); got != wantSelf {
			t.Fatalf("query %d: self-containment %v, want %v", i, got, wantSelf)
		}
	}
}

func TestBackgroundCompactorSealsAndMerges(t *testing.T) {
	opts := liveOpts()
	opts.ManualCompaction = false
	opts.SealThreshold = 16
	opts.MaxSegments = 2
	recs := fixture(t, 400, 7)
	x, err := Build(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, r := range recs {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	// The compactor runs asynchronously; wait for it to catch up (Flush
	// serializes behind any in-flight seal via compactMu).
	for i := 0; i < 100; i++ {
		x.Flush()
		if st := x.Stats(); st.Buffered == 0 && len(st.Segments) <= opts.MaxSegments+1 {
			break
		}
	}
	st := x.Stats()
	if st.Seals == 0 {
		t.Fatalf("background compactor never sealed: %+v", st)
	}
	if st.Domains != 400 {
		t.Fatalf("Domains = %d, want 400", st.Domains)
	}
	for i := 0; i < 400; i += 13 {
		r := recs[i]
		if !contains(x.Query(r.Sig, r.Size, 1.0), r.Key) {
			t.Fatalf("%s lost across background compaction", r.Key)
		}
	}
}

// TestTieredCompactionShape: with automatic compaction and the compactor
// settled after every seal, three segments of one size tier merge into one
// segment of the next, so the sealed sizes follow the base-3 digits of the
// seal count (lowest tier last, the segments being in time order), and
// MaxSegments still caps the count below that shape.
func TestTieredCompactionShape(t *testing.T) {
	const s = 16
	for _, tc := range []struct {
		name    string
		seals   int
		max     int // MaxSegments; 0 is the default
		deletes int // keys of the first seal deleted once the second settles
		want    []int
		merges  uint64
	}{
		{name: "2 seals", seals: 2, want: []int{s, s}},
		{name: "3 seals", seals: 3, want: []int{3 * s}, merges: 1},
		{name: "5 seals", seals: 5, want: []int{3 * s, s, s}, merges: 1},
		{name: "9 seals", seals: 9, want: []int{9 * s}, merges: 4},
		{name: "10 seals", seals: 10, want: []int{9 * s, s}, merges: 4},
		// 2.5s is below tier 1's 3s but above its lower bound 1.5s, so the
		// shrunken merge joins the next two tier-1 segments.
		{name: "dead entries keep the tier", seals: 9, deletes: s / 2, want: []int{9*s - s/2}, merges: 4},
		// Tiering leaves [3s s s]; the cap merges the two smallest.
		{name: "cap below the tier shape", seals: 5, max: 2, want: []int{3 * s, 2 * s}, merges: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := liveOpts()
			opts.ManualCompaction = false
			opts.SealThreshold = s
			opts.MaxSegments = tc.max
			x, err := Build(nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			recs := fixture(t, tc.seals*s, 51)
			for i, r := range recs {
				if _, err := x.Add(r); err != nil {
					t.Fatal(err)
				}
				if (i+1)%s != 0 {
					continue
				}
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
					sn := x.snap.Load()
					if len(sn.buf) < s && mergeVictims(sn.segs, s, x.opts.MaxSegments) == nil {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("compactor not settled after seal %d: %+v", (i+1)/s, x.Stats())
					}
				}
				if i+1 == 2*s {
					for _, d := range recs[:tc.deletes] {
						x.Delete(d.Key)
					}
				}
			}
			st := x.Stats()
			if !reflect.DeepEqual(st.Segments, tc.want) || st.Seals != uint64(tc.seals) || st.Merges != tc.merges {
				t.Fatalf("segments %v after %d seals and %d merges, want %v after %d and %d",
					st.Segments, st.Seals, st.Merges, tc.want, tc.seals, tc.merges)
			}
			if st.Domains != tc.seals*s-tc.deletes {
				t.Fatalf("Domains = %d, want %d", st.Domains, tc.seals*s-tc.deletes)
			}
		})
	}
}

func TestQueryBatchMatchesSingle(t *testing.T) {
	recs := fixture(t, 220, 8)
	x, err := Build(recs[:180], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, r := range recs[180:] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 220; i += 11 {
		x.Delete(recs[i].Key)
	}
	var queries []domain.BatchQuery
	for i := 0; i < 220; i += 5 {
		queries = append(queries, domain.BatchQuery{
			Sig: recs[i].Sig, Size: recs[i].Size,
			Threshold: []float64{0.3, 0.7, 1.0}[i%3],
		})
	}
	for _, workers := range []int{0, 1, 3} {
		rows := x.QueryBatch(queries, workers)
		if len(rows) != len(queries) {
			t.Fatalf("workers=%d: %d rows", workers, len(rows))
		}
		for i, q := range queries {
			want := x.Query(q.Sig, q.Size, q.Threshold)
			if !equalKeySets(rows[i], want) {
				t.Fatalf("workers=%d row %d: %v != %v", workers, i, sortedKeys(rows[i]), sortedKeys(want))
			}
		}
	}
	if rows := x.QueryBatch(nil, 2); len(rows) != 0 {
		t.Fatalf("empty batch returned %d rows", len(rows))
	}
	// Invalid query sizes yield empty rows — including from the buffer scan,
	// matching core's batch contract.
	rows := x.QueryBatch([]domain.BatchQuery{
		{Sig: recs[1].Sig, Size: 0, Threshold: 0.5},
		{Sig: recs[1].Sig, Size: -3, Threshold: 0.5},
	}, 2)
	if len(rows[0]) != 0 || len(rows[1]) != 0 {
		t.Fatalf("non-positive query sizes returned %d/%d keys, want empty rows",
			len(rows[0]), len(rows[1]))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	recs := fixture(t, 150, 9)
	x, err := Build(recs[:100], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, r := range recs[100:130] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	for _, r := range recs[130:] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i += 19 {
		x.Delete(recs[i].Key)
	}

	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := Load(bytes.NewReader(buf.Bytes()), liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()

	sx, sy := x.Stats(), y.Stats()
	if fmt.Sprint(sx) != fmt.Sprint(sy.withoutCounters(sx)) {
		t.Fatalf("stats differ after reload:\n  saved  %+v\n  loaded %+v", sx, sy)
	}
	for i := 0; i < 150; i += 7 {
		r := recs[i]
		for _, tStar := range []float64{0.4, 1.0} {
			a, b := x.Query(r.Sig, r.Size, tStar), y.Query(r.Sig, r.Size, tStar)
			if !equalKeySets(a, b) {
				t.Fatalf("query %d t*=%v: %v != %v after reload", i, tStar, sortedKeys(a), sortedKeys(b))
			}
		}
	}
	// Mutations must keep working on the loaded index with correct upsert
	// and delete semantics (the writer-side key → seq map was rebuilt).
	if replaced, err := y.Add(recs[1]); err != nil || !replaced {
		t.Fatalf("Add existing after reload: replaced=%v err=%v", replaced, err)
	}
	if !y.Delete(recs[2].Key) {
		t.Fatal("Delete existing after reload = false")
	}
	if y.Delete(recs[0].Key) {
		t.Fatal("Delete of key tombstoned before Save = true after reload")
	}
}

// withoutCounters copies s with the operation counters taken from o, so
// point-in-time shape comparison ignores how the shape was reached.
func (s Stats) withoutCounters(o Stats) Stats {
	s.Seals, s.Merges = o.Seals, o.Merges
	return s
}

func TestLoadRejectsGarbageAndMismatch(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk")), liveOpts()); err == nil {
		t.Fatal("garbage accepted")
	}
	recs := fixture(t, 30, 10)
	x, err := Build(recs, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	buf := x.AppendBinary(nil)
	// 20–23 cover a header cut inside the seq field, which must return
	// ErrCorrupt rather than panic (the fixed header is 24 bytes).
	for _, cut := range []int{3, 17, 20, 21, 22, 23, len(buf) / 2, len(buf) - 2} {
		if _, err := Load(bytes.NewReader(buf[:cut]), liveOpts()); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := liveOpts()
	bad.NumHash = 256
	if _, err := Load(bytes.NewReader(buf), bad); err == nil {
		t.Fatal("NumHash mismatch accepted")
	}
}

// TestLoadRefusesHugeNumHash: a well-formed 48-byte current snapshot of no
// segments whose header claims 2^30 hash functions is corrupt, not an index
// whose caller then builds a 16 GiB hasher.
func TestLoadRefusesHugeNumHash(t *testing.T) {
	buf := append([]byte(nil), liveMagic[:]...)
	for _, v := range []uint32{liveVersion, 1 << 30, 8, core.Minwise32.Tag()} {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	buf = binary.LittleEndian.AppendUint64(buf, 0) // seq
	buf = append(buf, make([]byte, 12)...)         // no segments, buffered entries or tombstones
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
	if len(buf) != 48 {
		t.Fatalf("fixture is %d bytes, want 48", len(buf))
	}
	x, err := Load(bytes.NewReader(buf), Options{ManualCompaction: true})
	if err == nil {
		x.Close()
		t.Fatal("NumHash 2^30 accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", err)
	}
}

// TestLoadRefusesBufferedSeqsOutOfOrder: Add buffers entries in seq order,
// and a seal keeps that order as the segment's seqs, which Load refuses out
// of order. A snapshot whose buffered seqs do not ascend is refused as well;
// it used to load into an index that, once flushed, saved a snapshot it
// then refused.
func TestLoadRefusesBufferedSeqsOutOfOrder(t *testing.T) {
	x, err := New(liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	recs := fixture(t, 2, 14)
	for _, r := range recs {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	snap := x.AppendBinary(nil)
	// v5 header (28 bytes), no segments, two buffered entries, each
	// seq u64 | keylen u32 | key | size u64 | sig row at the width.
	w := x.opts.Sketch.WidthBytes()
	first := 28 + 4 + 4
	second := first + 8 + 4 + len(recs[0].Key) + 8 + w*lshforest.RowLen(x.opts.NumHash, x.opts.RMax, w)
	le := binary.LittleEndian
	if s1, s2 := le.Uint64(snap[first:]), le.Uint64(snap[second:]); s1 != 1 || s2 != 2 {
		t.Fatalf("fixture's buffered seqs are %d, %d, want 1, 2", s1, s2)
	}
	le.PutUint64(snap[first:], 2)
	le.PutUint64(snap[second:], 1)
	le.PutUint64(snap[len(snap)-8:], crc64.Checksum(snap[:len(snap)-8], crcTable))
	y, err := Load(bytes.NewReader(snap), liveOpts())
	if err == nil {
		y.Close()
		t.Fatal("buffered seqs 2, 1 accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", err)
	}
}

// TestLoadRefusesTwoLiveEntriesForOneKey: an upsert leaves two entries of one
// key and a tombstone that leaves only the newer alive. A snapshot with that
// tombstone cut out used to load and serve both entries, one key twice in an
// answer (which the router's answer frame refuses). It is corrupt.
func TestLoadRefusesTwoLiveEntriesForOneKey(t *testing.T) {
	x, err := New(liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	r := fixture(t, 1, 15)[0]
	for i := 0; i < 2; i++ {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	snap := x.AppendBinary(nil)
	// The snapshot ends ntombs u32 | keylen u32 | key | seq u64 | crc u64.
	tomb := 4 + len(r.Key) + 8
	at := len(snap) - 8 - tomb - 4
	le := binary.LittleEndian
	if n := le.Uint32(snap[at:]); n != 1 {
		t.Fatalf("fixture holds %d tombstones, want 1", n)
	}
	cut := le.AppendUint32(append([]byte(nil), snap[:at]...), 0)
	cut = le.AppendUint64(cut, crc64.Checksum(cut, crcTable))
	y, err := Load(bytes.NewReader(cut), liveOpts())
	if err == nil {
		got := y.Query(r.Sig, r.Size, 1)
		y.Close()
		t.Fatalf("two live entries of %q accepted: Len %d, Query %q", r.Key, y.Len(), got)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v, want ErrCorrupt", err)
	}
}

// TestStatsSeqNeverGoesBack: Stats.Seq is the last mutation the snapshot
// applies, so it counts the mutations whatever a seal, merge or reload drops.
// It used to be derived from the entries and tombstones still held, and fell
// when a seal or merge collected the newest tombstone.
func TestStatsSeqNeverGoesBack(t *testing.T) {
	recs := fixture(t, 8, 16)
	x, err := New(liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { x.Close() }()
	mutations := uint64(0)
	check := func(step string) {
		t.Helper()
		if got := x.Stats().Seq; got != mutations {
			t.Fatalf("after %s: Seq %d, want %d", step, got, mutations)
		}
	}
	add := func(r domain.Record) {
		t.Helper()
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
		mutations++
		check("Add " + r.Key)
	}
	del := func(key string) {
		t.Helper()
		if !x.Delete(key) {
			t.Fatalf("Delete(%s) = false", key)
		}
		mutations++
		check("Delete " + key)
	}
	add(recs[0])
	del(recs[0].Key)
	x.Flush()
	check("Flush")
	for _, r := range recs[1:5] {
		add(r)
	}
	del(recs[4].Key)
	x.Flush()
	check("Flush")
	x.Compact()
	check("Compact")
	y, err := Load(bytes.NewReader(x.AppendBinary(nil)), liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	x.Close()
	x = y
	check("Save+Load")
	add(recs[5])
	del(recs[1].Key)
	x.Compact()
	check("Compact after Load")
}

// TestHugeSealThresholdSeals: a seal used to preallocate the next buffer at
// SealThreshold entries, so the first Flush under SealThreshold 1<<44
// panicked (makeslice: cap out of range) and values from about 2^31 asked
// the runtime for more than 100 GB. The carried-over buffer now grows as Add
// grows it.
func TestHugeSealThresholdSeals(t *testing.T) {
	opts := liveOpts()
	opts.SealThreshold = 1 << 44
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, r := range fixture(t, 3, 17) {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	if st := x.Stats(); len(st.Segments) != 1 || st.Segments[0] != 3 || st.Buffered != 0 {
		t.Fatalf("after Flush: segments %v, %d buffered, want one segment of 3", st.Segments, st.Buffered)
	}
}

func TestValidation(t *testing.T) {
	recs := fixture(t, 10, 11)
	x, err := Build(recs, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if _, err := x.Add(domain.Record{Key: "bad", Size: 0, Sig: recs[0].Sig}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := x.Add(domain.Record{Key: "bad", Size: 5, Sig: recs[0].Sig[:8]}); err == nil {
		t.Fatal("short signature accepted")
	}
	if _, err := Build([]domain.Record{{Key: "bad", Size: 0, Sig: recs[0].Sig}}, liveOpts()); err == nil {
		t.Fatal("Build accepted invalid record")
	}
	// Empty index answers queries and accepts its first Add.
	e, err := New(liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if res := e.Query(recs[0].Sig, recs[0].Size, 0.5); len(res) != 0 {
		t.Fatalf("empty index returned %v", res)
	}
	if _, err := e.Add(recs[0]); err != nil {
		t.Fatal(err)
	}
	if !contains(e.Query(recs[0].Sig, recs[0].Size, 1.0), recs[0].Key) {
		t.Fatal("first Add not retrievable")
	}
}

func TestBuildUpsertsDuplicateKeys(t *testing.T) {
	recs := fixture(t, 20, 12)
	dup := append(append([]domain.Record{}, recs...), domain.Record{
		Key: recs[3].Key, Size: recs[4].Size, Sig: recs[4].Sig,
	})
	x, err := Build(dup, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if x.Len() != 20 {
		t.Fatalf("Len = %d, want 20 (duplicate collapsed)", x.Len())
	}
	n := 0
	for _, k := range x.Query(recs[4].Sig, recs[4].Size, 1.0) {
		if k == recs[3].Key {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("duplicate key appears %d times", n)
	}
}

func TestTombstoneGC(t *testing.T) {
	recs := fixture(t, 64, 13)
	x, err := Build(recs[:32], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, r := range recs[32:] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	for i := 0; i < 20; i++ {
		x.Delete(recs[i].Key)
	}
	if st := x.Stats(); st.Tombstones != 20 {
		t.Fatalf("Tombstones = %d, want 20", st.Tombstones)
	}
	x.Compact()
	st := x.Stats()
	if st.Tombstones != 0 {
		t.Fatalf("Tombstones = %d after Compact, want 0", st.Tombstones)
	}
	if st.Domains != 44 || len(st.Segments) != 1 || st.Segments[0] != 44 {
		t.Fatalf("unexpected shape after Compact: %+v", st)
	}
}

// TestTopKHugeK: a k beyond the corpus ranks everything that collides. With a
// tombstone pending, k near math.MaxInt used to wrap k + tombstones negative,
// which the segment ladder read as "collect nothing": the answer came back
// empty (over HTTP, a 200 with no matches). k is now bounded by the
// snapshot's physical entry count first, so a huge k answers like a merely
// large one — before and after a Delete, from segments and from the buffer.
func TestTopKHugeK(t *testing.T) {
	recs := fixture(t, 50, 25)
	opts := liveOpts()
	opts.ResultCacheSize = -1
	x, err := Build(recs[:40], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, r := range recs[40:] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	q := recs[3]
	check := func(when string) {
		t.Helper()
		want := x.QueryTopK(q.Sig, q.Size, 1000)
		if len(want) == 0 || want[0].Key != q.Key {
			t.Fatalf("%s: k=1000 ranks %v, want the query's own key first", when, want)
		}
		for _, k := range []int{math.MaxInt, math.MaxInt - 1, math.MaxInt / 2} {
			if got := x.QueryTopK(q.Sig, q.Size, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: k=%d ranks %d results %v, k=1000 ranks %d", when, k, len(got), got, len(want))
			}
		}
	}
	check("no tombstones")
	x.Delete(recs[7].Key)  // a sealed entry
	x.Delete(recs[45].Key) // a buffered one
	check("two tombstones")
}

// TestNegativeSealThresholdRefused: a negative SealThreshold is an error from
// every constructor. It used to be accepted, and the first seal then panicked
// sizing the next buffer (makeslice: cap out of range) — from the compactor
// goroutine, so `lshensembled -seal -5` died on its first /add.
func TestNegativeSealThresholdRefused(t *testing.T) {
	refusedByEveryConstructor(t, "SealThreshold", func(o *Options) { o.SealThreshold = -5 })
}

// TestNegativeMaxSegmentsRefused: a negative MaxSegments is an error from
// every constructor. It used to be accepted, and the first seal left one
// segment, "more than -1", whose merge with a second one panicked (index out
// of range) in the compactor goroutine: `lshensembled -max-segments -1` died
// at its first seal.
func TestNegativeMaxSegmentsRefused(t *testing.T) {
	refusedByEveryConstructor(t, "MaxSegments", func(o *Options) { o.MaxSegments = -1 })
}

// refusedByEveryConstructor checks that New, Build and Load all refuse the
// options set names an error for, with an error naming the option.
func refusedByEveryConstructor(t *testing.T, option string, set func(*Options)) {
	recs := fixture(t, 8, 41)
	good, err := Build(recs, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	snap := good.AppendBinary(nil)

	opts := liveOpts()
	set(&opts)
	for name, construct := range map[string]func() (*Index, error){
		"New":   func() (*Index, error) { return New(opts) },
		"Build": func() (*Index, error) { return Build(recs, opts) },
		"Load":  func() (*Index, error) { return Load(bytes.NewReader(snap), opts) },
	} {
		x, err := construct()
		if err == nil {
			x.Close()
			t.Errorf("%s accepted a negative %s", name, option)
		} else if !strings.Contains(err.Error(), option) {
			t.Errorf("%s: error %q does not name the option", name, err)
		}
	}
}
