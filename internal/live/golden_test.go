package live

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc64"
	"testing"

	"lshensemble/internal/core"
	"lshensemble/internal/minhash"
)

// encodeLegacy serializes the index's current snapshot in a historical wire
// format (v1: no per-segment planner metadata; v2: inline metadata, no kind
// bytes, map-ordered tombstones, no trailing checksum; v3: kind bytes and
// the checksum; v4: v3 with the sketch tag), every buffered signature
// full-width. full gives each buffered key's full-width signature; nil
// widens the arena's values, which are the full ones under Minwise64, the
// only backend v1–v3 carry. These are the bytes old deployments have on
// disk — the golden fixtures the compatibility promise is tested against.
func encodeLegacy(t testing.TB, x *Index, version uint32, full map[string]minhash.Signature) []byte {
	t.Helper()
	sn := x.snap.Load()
	buf := append([]byte(nil), liveMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.NumHash))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.RMax))
	if version >= liveVersionV4 {
		buf = binary.LittleEndian.AppendUint32(buf, x.opts.Sketch.Tag())
	}
	buf = binary.LittleEndian.AppendUint64(buf, sn.seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.segs)))
	for _, seg := range sn.segs {
		if version >= liveVersionV3 {
			buf = append(buf, segKindInline)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seg.seqs)))
		for _, s := range seg.seqs {
			buf = binary.LittleEndian.AppendUint64(buf, s)
		}
		buf = seg.idx.AppendBinary(buf)
		if version >= 2 {
			buf = appendSegMeta(buf, seg.meta)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.buf)))
	for i := range sn.buf {
		e := &sn.buf[i]
		buf = binary.LittleEndian.AppendUint64(buf, e.seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.key)))
		buf = append(buf, e.key...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.size))
		sig := sn.sigs.widen(nil, i)
		if full != nil {
			sig = full[e.key][:x.opts.NumHash]
		}
		for _, v := range sig {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.tombs)))
	for k, s := range sn.tombs { // map order: v1/v2 never promised determinism
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, s)
	}
	if version >= liveVersionV3 {
		buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
	}
	return buf
}

// goldenIndex builds a state with every feature a legacy snapshot can hold:
// sealed segments, buffered entries, and live tombstones.
func goldenIndex(t testing.TB) *Index {
	t.Helper()
	recs := fixture(t, 120, 17)
	opts := liveOpts()
	opts.Sketch = core.Minwise64 // the only backend v1–v3 can carry
	x, err := Build(recs[:80], opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[80:115] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	x.Delete(recs[5].Key)
	x.Delete(recs[85].Key)
	for _, r := range recs[115:] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

// TestLegacyFormatsLoadAndResaveDeterministically is the format-compat
// promise: v1 and v2 snapshots load into the identical logical state, and
// re-saving either produces v3 bytes that are byte-for-byte deterministic —
// the same state always encodes to the same manifest.
func TestLegacyFormatsLoadAndResaveDeterministically(t *testing.T) {
	x := goldenIndex(t)
	defer x.Close()
	recs := fixture(t, 120, 17)

	var resaves [][]byte
	for _, version := range []uint32{liveVersionV1, liveVersionV2} {
		golden := encodeLegacy(t, x, version, nil)
		loaded, err := Load(bytes.NewReader(golden), liveOpts())
		if err != nil {
			t.Fatalf("v%d golden rejected: %v", version, err)
		}
		defer loaded.Close()
		if loaded.Len() != x.Len() {
			t.Fatalf("v%d: Len %d, want %d", version, loaded.Len(), x.Len())
		}
		for _, r := range recs[:50] {
			want := x.Query(r.Sig, r.Size, 0.9)
			if got := loaded.Query(r.Sig, r.Size, 0.9); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("v%d: loaded index answered %v, want %v", version, got, want)
			}
		}
		a := loaded.AppendBinary(nil)
		if v := binary.LittleEndian.Uint32(a[4:]); v != liveVersion {
			t.Fatalf("v%d re-save produced version %d, want %d", version, v, liveVersion)
		}
		if b := loaded.AppendBinary(nil); !bytes.Equal(a, b) {
			t.Fatalf("v%d: two re-saves of the same loaded state differ", version)
		}
		// And the re-saved v3 bytes round-trip through Load unchanged.
		again, err := Load(bytes.NewReader(a), liveOpts())
		if err != nil {
			t.Fatalf("v%d: re-saved v3 rejected: %v", version, err)
		}
		defer again.Close()
		if c := again.AppendBinary(nil); !bytes.Equal(a, c) {
			t.Fatalf("v%d: v3 save/load/save not byte-stable", version)
		}
		resaves = append(resaves, a)
	}
	// v1 carries no planner metadata; the loader rebuilds it, and since
	// buildSegMeta is a pure function of the segment contents, the v1- and
	// v2-loaded states must re-encode identically.
	if !bytes.Equal(resaves[0], resaves[1]) {
		t.Fatal("v1- and v2-loaded states produced different v3 encodings")
	}
}

// TestSegmentImageGolden pins the bytes a sealed segment is built into, per
// sketch backend: the signature store, the entry ids, and every tree's sorted
// order and leading column. The forest encoding drops tree orders, so this is
// the one golden that fails if a change to how forests are built moves them.
func TestSegmentImageGolden(t *testing.T) {
	want := map[core.SketchBackend]string{
		core.Minwise64: "945eb9ba4ef625ed1b0787b7fcc4c0b44e76ebbffed9e4d17b683cfa3386c82a",
		core.Minwise32: "e5bf87a74534f22e152e7dab6124630064f766b105e5a4ad25756074fc412500",
		core.Minwise16: "0aa3999c3a3de05c23c819795bb9358140d1a9e05ed8de41627ce5ff232cf004",
	}
	recs := fixture(t, 300, 23)
	for sb, digest := range want {
		opts := liveOpts()
		opts.Sketch = sb
		x, err := Build(recs, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(segmentImage(x.snap.Load().segs[0]))
		x.Close()
		if got := hex.EncodeToString(sum[:]); got != digest {
			t.Errorf("%s segment image sha256 %s, want %s", sb, got, digest)
		}
	}
}

// TestLegacySnapshotKeepsWorking loads a v2 snapshot and keeps using the
// index — churn after a format upgrade must behave exactly like a fresh
// index.
func TestLegacySnapshotKeepsWorking(t *testing.T) {
	x := goldenIndex(t)
	defer x.Close()
	golden := encodeLegacy(t, x, liveVersionV2, nil)
	loaded, err := Load(bytes.NewReader(golden), liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	extra := fixture(t, 20, 31)
	for _, r := range extra {
		for _, idx := range []*Index{x, loaded} {
			if _, err := idx.Add(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, idx := range []*Index{x, loaded} {
		idx.Compact()
	}
	for _, r := range append(extra, fixture(t, 120, 17)[:30]...) {
		want := x.Query(r.Sig, r.Size, 0.8)
		if got := loaded.Query(r.Sig, r.Size, 0.8); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("post-upgrade churn diverged: %v vs %v", got, want)
		}
	}
}

// TestV4SnapshotNarrowsItsBuffer: a v4 snapshot holds its buffered
// signatures full-width. Under every narrow backend it loads, answers as the
// index it came from and re-saves as that index's own v5 bytes, the buffer at
// the sketch width, byte-stably. A v5 snapshot whose buffer section is one
// value short is corrupt.
func TestV4SnapshotNarrowsItsBuffer(t *testing.T) {
	recs := fixture(t, 120, 29)
	full := make(map[string]minhash.Signature)
	for _, r := range recs {
		full[r.Key] = r.Sig
	}
	for _, sb := range narrowBackends {
		x, err := Build(recs[:80], sketchOpts(sb))
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		for _, r := range recs[80:] {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		x.Delete(recs[3].Key)
		x.Delete(recs[90].Key)
		y, err := Load(bytes.NewReader(encodeLegacy(t, x, liveVersionV4, full)), liveOpts())
		if err != nil {
			t.Fatalf("%s: v4 snapshot rejected: %v", sb, err)
		}
		defer y.Close()
		for _, r := range recs[:60] {
			if got, want := y.Query(r.Sig, r.Size, 0.6), x.Query(r.Sig, r.Size, 0.6); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: v4 load answered %v, want %v", sb, got, want)
			}
			if got, want := y.QueryTopK(r.Sig, r.Size, 5), x.QueryTopK(r.Sig, r.Size, 5); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: v4 load ranked %v, want %v", sb, got, want)
			}
		}
		v5 := y.AppendBinary(nil)
		if v := binary.LittleEndian.Uint32(v5[4:]); v != liveVersion || liveVersion != 5 {
			t.Fatalf("%s: re-save is version %d, want 5", sb, v)
		}
		if !bytes.Equal(v5, x.AppendBinary(nil)) {
			t.Fatalf("%s: the v4 load re-saves other bytes than the index it came from", sb)
		}
		if again := y.AppendBinary(nil); !bytes.Equal(v5, again) {
			t.Fatalf("%s: a second save differs", sb)
		}
		if got, want := y.Stats().SignatureBytes, x.Stats().SignatureBytes; got != want {
			t.Fatalf("%s: v4 load holds %d signature bytes, want %d", sb, got, want)
		}

		// No tombstones: the buffer section ends before the count word 0 and
		// the checksum. Cut its last value out.
		z, err := New(sketchOpts(sb))
		if err != nil {
			t.Fatal(err)
		}
		defer z.Close()
		for _, r := range recs[:3] {
			if _, err := z.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		enc := z.AppendBinary(nil)
		end := len(enc) - 8 - 4
		short := append(append([]byte(nil), enc[:end-sb.WidthBytes()]...), enc[end:len(enc)-8]...)
		short = binary.LittleEndian.AppendUint64(short, crc64.Checksum(short, crcTable))
		if _, err := Load(bytes.NewReader(short), liveOpts()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: a buffer one value short loaded (error %v), want ErrCorrupt", sb, err)
		}
	}
}
