package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"slices"
	"testing"

	"lshensemble/internal/core"
	"lshensemble/internal/datagen"
	"lshensemble/internal/domain"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/minhash"
)

// sketchOpts is liveOpts with a non-default sketch backend.
func sketchOpts(sb core.SketchBackend) Options {
	opts := liveOpts()
	opts.Sketch = sb
	return opts
}

// narrowBackends are the b-bit minwise backends every matrix test runs over.
var narrowBackends = []core.SketchBackend{core.Minwise16, core.Minwise32}

// TestSketchBackendSelfRetrieval: a b-bit store only raises band collision
// probability relative to Minwise64, so self-retrieval at threshold 1.0 must
// survive every backend — across sealed segments AND the unsealed buffer
// (whose masked scan must collide exactly like the sealed forest would).
func TestSketchBackendSelfRetrieval(t *testing.T) {
	recs := fixture(t, 120, 5)
	for _, sb := range narrowBackends {
		t.Run(sb.String(), func(t *testing.T) {
			x, err := Build(recs[:80], sketchOpts(sb))
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			for _, r := range recs[80:] { // buffered
				if _, err := x.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range recs {
				if !contains(x.Query(r.Sig, r.Size, 1.0), r.Key) {
					t.Fatalf("%s: %s not self-retrieved", sb, r.Key)
				}
			}
			top := x.QueryTopK(recs[0].Sig, recs[0].Size, 3)
			if len(top) == 0 || top[0].Key != recs[0].Key {
				t.Fatalf("%s: top-1 of self query = %v", sb, top)
			}
		})
	}
}

// TestSketchBackendSupersetOfMinwise64: truncation can only add candidates
// (chance collisions in the surviving bits), never lose one — every
// Minwise64 answer must be contained in the narrow backend's answer.
func TestSketchBackendSupersetOfMinwise64(t *testing.T) {
	recs := fixture(t, 150, 6)
	full, err := Build(recs, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	for _, sb := range narrowBackends {
		t.Run(sb.String(), func(t *testing.T) {
			x, err := Build(recs, sketchOpts(sb))
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			for _, r := range recs[:40] {
				for _, tStar := range []float64{0.5, 0.8, 1.0} {
					want := full.Query(r.Sig, r.Size, tStar)
					got := x.Query(r.Sig, r.Size, tStar)
					for _, k := range want {
						if !contains(got, k) {
							t.Fatalf("%s t=%v: candidate %s lost by truncation", sb, tStar, k)
						}
					}
				}
			}
		})
	}
}

// TestSketchBackendSaveLoadRoundTrip saves and reloads a narrow-backend
// index (current manifest) and demands identical answers and shape; it also
// exercises the seed-style mismatch rejection when the configured backend
// disagrees with the manifest.
func TestSketchBackendSaveLoadRoundTrip(t *testing.T) {
	recs := fixture(t, 100, 7)
	for _, sb := range narrowBackends {
		t.Run(sb.String(), func(t *testing.T) {
			x, err := Build(recs[:70], sketchOpts(sb))
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			for _, r := range recs[70:] {
				if _, err := x.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			x.Delete(recs[10].Key)
			var buf bytes.Buffer
			if err := x.Save(&buf); err != nil {
				t.Fatal(err)
			}

			// Zero-value Sketch adopts the manifest's backend.
			y, err := Load(bytes.NewReader(buf.Bytes()), func() Options {
				o := liveOpts()
				o.Sketch = 0
				return o
			}())
			if err != nil {
				t.Fatal(err)
			}
			defer y.Close()
			if got := y.Options().Sketch; got != sb {
				t.Fatalf("loaded sketch %s, want %s", got, sb)
			}
			if y.Len() != x.Len() {
				t.Fatalf("loaded Len %d, want %d", y.Len(), x.Len())
			}
			for _, r := range recs[:30] {
				want := x.Query(r.Sig, r.Size, 0.8)
				got := y.Query(r.Sig, r.Size, 0.8)
				if fmt.Sprint(sortedKeys(got)) != fmt.Sprint(sortedKeys(want)) {
					t.Fatalf("round trip changed answer: %v vs %v", got, want)
				}
			}

			// Explicitly configured matching backend also loads.
			if z, err := Load(bytes.NewReader(buf.Bytes()), sketchOpts(sb)); err != nil {
				t.Fatalf("matching configured backend rejected: %v", err)
			} else {
				z.Close()
			}
			// A conflicting non-default backend is rejected, like NumHash.
			wrong := core.Minwise16
			if sb == core.Minwise16 {
				wrong = core.Minwise32
			}
			if _, err := Load(bytes.NewReader(buf.Bytes()), sketchOpts(wrong)); err == nil {
				t.Fatalf("mismatched backend %s accepted against %s manifest", wrong, sb)
			}
		})
	}
}

// TestLoadKeepsTheFileBackend pins the unset-backend rule: a new index with
// no Sketch stores Minwise16, while Load with no Sketch keeps the backend the
// file carries — the implicit Minwise64 of a v1–v3 snapshot and a Minwise32
// one included — and seals later adds into it. An explicit backend, Minwise64
// too, must match. Snapshots tagged 1 and 2, the retired 8-bit backend and the
// 16-bit one whose band leads were 16 bits too, are refused like any unknown
// tag, under a valid checksum too.
func TestLoadKeepsTheFileBackend(t *testing.T) {
	recs := fixture(t, 100, 12)
	load := func(b []byte, sb core.SketchBackend) (*Index, error) {
		o := liveOpts()
		o.Sketch = sb
		return Load(bytes.NewReader(b), o)
	}
	fresh, err := Build(recs[:60], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got := fresh.Options().Sketch; got != core.Minwise16 {
		t.Fatalf("a new index with no backend stores %s, want minwise16", got)
	}
	if _, err := load(fresh.AppendBinary(nil), core.Minwise64); err == nil {
		t.Fatal("an explicit minwise64 loaded a minwise16 snapshot")
	}
	m32, err := Build(recs[:60], sketchOpts(core.Minwise32))
	if err != nil {
		t.Fatal(err)
	}
	defer m32.Close()

	old, err := Build(recs[:60], sketchOpts(core.Minwise64))
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if _, err := load(old.AppendBinary(nil), core.Minwise32); err == nil {
		t.Fatal("an explicit minwise32 loaded a minwise64 snapshot")
	}
	for _, c := range []struct {
		name  string
		file  []byte
		saved *Index
	}{
		{"v1", encodeLegacy(t, old, liveVersionV1, nil), old},
		{"v2", encodeLegacy(t, old, liveVersionV2, nil), old},
		{"v3", encodeV3(t, old), old},
		{"v5 minwise64", old.AppendBinary(nil), old},
		{"v5 minwise32", m32.AppendBinary(nil), m32},
		{"v5 minwise16", fresh.AppendBinary(nil), fresh},
	} {
		sb := c.saved.Options().Sketch
		y, err := load(c.file, core.SketchUnset)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		defer y.Close()
		if got := y.Options().Sketch; got != sb {
			t.Fatalf("%s: loaded as %s, want %s", c.name, got, sb)
		}
		for _, r := range recs[:30] {
			if got, want := y.Query(r.Sig, r.Size, 0.8), c.saved.Query(r.Sig, r.Size, 0.8); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: answered %v, the saved index %v", c.name, got, want)
			}
		}
		for _, r := range recs[60:] {
			if _, err := y.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		y.Flush()
		for _, seg := range y.snap.Load().segs {
			if seg.idx.Sketch() != sb {
				t.Fatalf("%s: a new add sealed into a %s segment", c.name, seg.idx.Sketch())
			}
		}
		if z, err := load(y.AppendBinary(nil), sb); err != nil {
			t.Fatalf("%s: the re-save does not load as %s: %v", c.name, sb, err)
		} else {
			z.Close()
		}
	}
	for _, tag := range []uint32{1, 2} {
		retagged := fresh.AppendBinary(nil)
		binary.LittleEndian.PutUint32(retagged[16:], tag) // after magic, version, numHash, rMax
		binary.LittleEndian.PutUint64(retagged[len(retagged)-8:], crc64.Checksum(retagged[:len(retagged)-8], crcTable))
		if _, err := load(retagged, core.SketchUnset); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a snapshot tagged %d loaded: %v", tag, err)
		}
	}
}

// TestSketchBackendOutOfCore runs the heap/spill/mmap trio under each narrow
// backend: the LSEG v2 width-scaled sections must be invisible to queries.
func TestSketchBackendOutOfCore(t *testing.T) {
	recs := fixture(t, 120, 8)
	for _, sb := range narrowBackends {
		t.Run(sb.String(), func(t *testing.T) {
			mk := func(dataDir string, mmap bool) *Index {
				opts := sketchOpts(sb)
				opts.DataDir = dataDir
				opts.Mmap = mmap
				x, err := Build(recs, opts)
				if err != nil {
					t.Fatal(err)
				}
				return x
			}
			heap := mk("", false)
			defer heap.Close()
			spill := mk(t.TempDir(), false)
			defer spill.Close()
			mapped := mk(t.TempDir(), true)
			defer mapped.Close()
			requireSameAnswers(t, sb.String(), heap, spill, mapped, recs[:30])
		})
	}
}

// TestSketchBackendSignatureBytes pins the acceptance ratio: the b-bit
// stores must shrink the sealed signature footprint by exactly width/8, plus
// minwise16's one lead high half per band (576 of 2 048 bytes at m = 256), so
// Minwise16 reports ≤ 0.5× the Minwise64 bytes.
func TestSketchBackendSignatureBytes(t *testing.T) {
	recs := fixture(t, 200, 9)
	bytesFor := func(sb core.SketchBackend) int64 {
		x, err := Build(recs, sketchOpts(sb))
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		st := x.Stats()
		if st.Sketch != sb.String() {
			t.Fatalf("Stats.Sketch = %q, want %q", st.Sketch, sb)
		}
		if len(st.SegmentDetail) == 0 || st.SegmentDetail[0].SignatureBytes <= 0 {
			t.Fatalf("%s: missing per-segment signature bytes: %+v", sb, st.SegmentDetail)
		}
		return st.SignatureBytes
	}
	full := bytesFor(core.Minwise64)
	o := sketchOpts(core.Minwise64).Options.WithDefaults()
	for _, sb := range narrowBackends {
		got := bytesFor(sb)
		row := lshforest.RowLen(o.NumHash, o.RMax, sb.WidthBytes())
		want := full * int64(sb.WidthBytes()*row) / int64(8*o.NumHash)
		if got != want {
			t.Fatalf("%s signature bytes %d, want %d (%d × %d/8 × %d/%d)", sb, got, want, full, sb.WidthBytes(), row, o.NumHash)
		}
	}
	if b16 := bytesFor(core.Minwise16); 2*b16 > full {
		t.Fatalf("minwise16 bytes %d not ≤ 0.5× minwise64 %d", b16, full)
	}
}

// TestSketchBackendCompactEquivalence fully compacts a mixed buffer+segment
// state and requires the result to answer exactly like a fresh Build over
// the surviving records (the package's compaction invariant) — truncation is
// idempotent, so re-sealing stored truncations through full-width signature
// carriers must be lossless under every backend.
func TestSketchBackendCompactEquivalence(t *testing.T) {
	recs := fixture(t, 140, 11)
	for _, sb := range narrowBackends {
		t.Run(sb.String(), func(t *testing.T) {
			x, err := Build(recs[:90], sketchOpts(sb))
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			for _, r := range recs[90:] {
				if _, err := x.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			x.Delete(recs[3].Key)
			x.Compact()
			survivors := append(append([]domain.Record(nil), recs[:3]...), recs[4:]...)
			fresh, err := Build(survivors, sketchOpts(sb))
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			for i, r := range recs[:40] {
				got := sortedKeys(x.Query(r.Sig, r.Size, 0.7))
				want := sortedKeys(fresh.Query(r.Sig, r.Size, 0.7))
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: compacted answer %d diverges from fresh build: %v vs %v", sb, i, got, want)
				}
			}
		})
	}
}

// TestBufferAtSketchWidth pins the buffer to the sketch backend's width, for
// every backend: before a Flush the buffer's threshold rows, batch rows and
// top-k ranking equal a reference computed here from the callers' full-width
// signatures under the backend's masks, and after it the sealed segment
// answers as one built from those signatures directly. Either way Stats
// counts every signature at the width, with minwise16's lead high halves. A
// buffer kept wider miscounts; one narrower than the width collides where
// the reference does not.
func TestBufferAtSketchWidth(t *testing.T) {
	recs := fixture(t, 150, 19)
	for _, sb := range append([]core.SketchBackend{core.Minwise64}, narrowBackends...) {
		t.Run(sb.String(), func(t *testing.T) {
			x, err := New(sketchOpts(sb))
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			direct, err := Build(recs, sketchOpts(sb))
			if err != nil {
				t.Fatal(err)
			}
			defer direct.Close()
			bufMax, byKey := 0, make(map[string]domain.Record)
			for _, r := range recs {
				byKey[r.Key] = r
				if _, err := x.Add(r); err != nil {
					t.Fatal(err)
				}
				bufMax = max(bufMax, r.Size)
			}
			nh, mask := x.opts.NumHash, sb.Mask()
			score := func(q, r domain.Record) float64 {
				eq := 0
				for k := 0; k < nh; k++ {
					if (q.Sig[k]^r.Sig[k])&mask == 0 {
						eq++
					}
				}
				return sb.ContainmentFromMatch(eq, nh, float64(q.Size), float64(r.Size))
			}
			// The buffer is one partition whose bound is its largest size.
			rows := func(q domain.Record, tStar float64) []string {
				if rangePruned(bufMax, q.Size, tStar) {
					return nil
				}
				p := x.bands.Optimize(float64(bufMax), float64(q.Size), tStar)
				var offs []int
				for b := 0; b < p.B; b++ {
					offs = append(offs, b*x.opts.RMax)
				}
				var keys []string
				for _, r := range recs {
					if bandsCollide(q.Sig, r.Sig, offs, p.R, sb) {
						keys = append(keys, r.Key)
					}
				}
				return keys
			}
			ranked := func(q domain.Record, k int) []domain.TopKResult {
				all := make([]domain.TopKResult, len(recs))
				for i, r := range recs {
					all[i] = domain.TopKResult{Key: r.Key, EstContainment: score(q, r)}
				}
				slices.SortFunc(all, domain.CompareTopK)
				return all[:k]
			}
			queries := recs[:40]
			for _, stage := range []string{"buffered", "flushed"} {
				if stage == "flushed" {
					x.Flush()
				}
				w := sb.WidthBytes()
				if got, want := x.Stats().SignatureBytes, int64(len(recs)*lshforest.RowLen(nh, x.opts.RMax, w)*w); got != want {
					t.Fatalf("%s: SignatureBytes %d, want %d at %d bytes a value", stage, got, want, w)
				}
				var batch []domain.BatchQuery
				var want [][]string
				for _, q := range queries {
					for _, tStar := range []float64{0.3, 0.7} {
						w := rows(q, tStar)
						if stage == "flushed" {
							w = direct.Query(q.Sig, q.Size, tStar)
						}
						if got := x.Query(q.Sig, q.Size, tStar); fmt.Sprint(got) != fmt.Sprint(w) {
							t.Fatalf("%s %s t=%v: rows %v, want %v", stage, q.Key, tStar, got, w)
						}
						batch = append(batch, domain.BatchQuery{Sig: q.Sig, Size: q.Size, Threshold: tStar})
						want = append(want, w)
					}
					w := ranked(q, 10)
					if stage == "flushed" {
						w = direct.QueryTopK(q.Sig, q.Size, 10)
					}
					got := x.QueryTopK(q.Sig, q.Size, 10)
					if fmt.Sprint(got) != fmt.Sprint(w) {
						t.Fatalf("%s %s: top-k %v, want %v", stage, q.Key, got, w)
					}
					for _, r := range got {
						if s := score(q, byKey[r.Key]); r.EstContainment != s {
							t.Fatalf("%s %s: %s scored %v, want %v", stage, q.Key, r.Key, r.EstContainment, s)
						}
					}
				}
				if got := x.QueryBatch(batch, 2); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: batch rows differ from the single queries' reference", stage)
				}
			}
		})
	}
}

// TestMinwise16AnswersAsMinwise32 holds minwise16, whose band leads keep 32
// bits, to minwise32's candidates on an OpenData corpus of 4 000 domains at
// the default shape (m = 256, trees of 8), 300 of them as queries at t* 0.2,
// 0.5 and 0.8: over 1 and 16 partitions, sealed into one segment and held in
// the buffer, every threshold answer and batch row of minwise16 holds
// minwise32's, and the keys it adds total at most 0.1 % of minwise32's. Only
// a band's other slots compare at 16 bits, and they only refine a 32-bit lead
// hit; with 16-bit leads, an r = 1 band admits an unrelated domain with
// probability 2⁻¹⁶, +0.76 % keys at 16 partitions.
func TestMinwise16AnswersAsMinwise32(t *testing.T) {
	const seed = 58
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: 4000, Seed: seed})
	recs := datagen.Records(corpus, minhash.NewHasher(256, seed))
	var batch []domain.BatchQuery
	for _, qi := range datagen.SampleQueries(corpus, 300, seed) {
		for _, tStar := range []float64{0.2, 0.5, 0.8} {
			batch = append(batch, domain.BatchQuery{Sig: recs[qi].Sig, Size: recs[qi].Size, Threshold: tStar})
		}
	}
	for _, parts := range []int{1, 16} {
		for _, sealed := range []bool{true, false} {
			answers := func(sb core.SketchBackend) (singles, rows [][]string) {
				opts := Options{Options: core.Options{NumPartitions: parts, Sketch: sb}, ManualCompaction: true}
				var x *Index
				var err error
				if sealed {
					x, err = Build(recs, opts)
				} else {
					opts.SealThreshold = 2 * len(recs)
					if x, err = New(opts); err == nil {
						for _, r := range recs {
							if _, err = x.Add(r); err != nil {
								break
							}
						}
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				defer x.Close()
				if st := x.Stats(); (st.Buffered == 0) != sealed || (len(st.Segments) == 1) != sealed {
					t.Fatalf("fixture: %d buffered, segments %v, want it sealed %v", st.Buffered, st.Segments, sealed)
				}
				for _, q := range batch {
					singles = append(singles, x.Query(q.Sig, q.Size, q.Threshold))
				}
				return singles, x.QueryBatch(batch, 2)
			}
			s32, b32 := answers(core.Minwise32)
			s16, b16 := answers(core.Minwise16)
			for shape, got := range map[string][2][][]string{"threshold": {s32, s16}, "batch": {b32, b16}} {
				total, extra := 0, 0
				for i, want := range got[0] {
					has := make(map[string]bool, len(got[1][i]))
					for _, k := range got[1][i] {
						has[k] = true
					}
					for _, k := range want {
						if !has[k] {
							t.Fatalf("parts=%d sealed=%v %s %d (t*=%.1f): minwise16 answers %v, missing minwise32's %q",
								parts, sealed, shape, i, batch[i].Threshold, got[1][i], k)
						}
					}
					total, extra = total+len(want), extra+len(got[1][i])-len(want)
				}
				if total == 0 || 1000*extra > total {
					t.Errorf("parts=%d sealed=%v %s: minwise16 adds %d keys to minwise32's %d, want at most 0.1 %%",
						parts, sealed, shape, extra, total)
				}
				t.Logf("parts=%d sealed=%v %s: minwise32 %d keys, minwise16 +%d", parts, sealed, shape, total, extra)
			}
		}
	}
}
