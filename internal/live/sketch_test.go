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
	"lshensemble/internal/domain"
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
// no Sketch stores Minwise32, while Load with no Sketch keeps the backend the
// file carries — the implicit Minwise64 of a v1–v3 snapshot included — and
// seals later adds into it. An explicit backend, Minwise64 too, must match.
// A snapshot tagged 1, the retired 8-bit backend, is refused like any unknown
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
	if got := fresh.Options().Sketch; got != core.Minwise32 {
		t.Fatalf("a new index with no backend stores %s, want minwise32", got)
	}
	if _, err := load(fresh.AppendBinary(nil), core.Minwise64); err == nil {
		t.Fatal("an explicit minwise64 loaded a minwise32 snapshot")
	}

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
		{"v5 minwise32", fresh.AppendBinary(nil), fresh},
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
	tagged1 := fresh.AppendBinary(nil)
	binary.LittleEndian.PutUint32(tagged1[16:], 1) // after magic, version, numHash, rMax
	binary.LittleEndian.PutUint64(tagged1[len(tagged1)-8:], crc64.Checksum(tagged1[:len(tagged1)-8], crcTable))
	if _, err := load(tagged1, core.SketchUnset); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a snapshot tagged 1 loaded: %v", err)
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
// stores must shrink the sealed signature footprint by exactly width/8, so
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
	for _, sb := range narrowBackends {
		got := bytesFor(sb)
		want := full * int64(sb.WidthBytes()) / 8
		if got != want {
			t.Fatalf("%s signature bytes %d, want %d (%d × %d/8)", sb, got, want, full, sb.WidthBytes())
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
// signatures under the backend's mask, and after it the sealed segment
// answers as one built from those signatures directly. Either way Stats
// counts every signature at the width. A buffer kept wider miscounts; one
// narrower than the width collides where the reference does not.
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
					if bandsCollide(q.Sig, r.Sig, offs, p.R, mask) {
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
				if got, want := x.Stats().SignatureBytes, int64(len(recs)*nh*sb.WidthBytes()); got != want {
					t.Fatalf("%s: SignatureBytes %d, want %d at %d bytes a value", stage, got, want, sb.WidthBytes())
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
