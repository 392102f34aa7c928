package live

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"lshensemble/internal/core"
)

// encodeLegacy serializes the index's current snapshot in the historical
// wire format (v1: no per-segment planner metadata; v2: inline metadata,
// no kind bytes, map-ordered tombstones, no trailing checksum). These are
// the bytes old deployments have on disk — the golden fixtures the
// compatibility promise is tested against.
func encodeLegacy(t testing.TB, x *Index, version uint32) []byte {
	t.Helper()
	sn := x.snap.Load()
	buf := append([]byte(nil), liveMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.NumHash))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.RMax))
	buf = binary.LittleEndian.AppendUint64(buf, x.seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.segs)))
	for _, seg := range sn.segs {
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
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.rec.Key)))
		buf = append(buf, e.rec.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.rec.Size))
		for _, v := range e.rec.Sig {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.tombs)))
	for k, s := range sn.tombs { // map order: v1/v2 never promised determinism
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, s)
	}
	return buf
}

// goldenIndex builds a state with every feature a legacy snapshot can hold:
// sealed segments, buffered entries, and live tombstones.
func goldenIndex(t testing.TB) *Index {
	t.Helper()
	recs := fixture(t, 120, 17)
	x, err := Build(recs[:80], liveOpts())
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
		golden := encodeLegacy(t, x, version)
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
		core.Minwise16: "b27fffaec2c305a07242ca9086322f029e49eddb62b7b81251c015f83b6f45fb",
		core.Minwise8:  "7e9cc26e1dee1540a8e7325385ce4fe0775e5509c0a9ac1fd5ab285c6a0bf081",
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
	golden := encodeLegacy(t, x, liveVersionV2)
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
