package live

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"testing"

	"lshensemble/internal/core"
	"lshensemble/internal/domain"
	"lshensemble/internal/minhash"
	"lshensemble/internal/segfile"
)

// encodeV3 rewrites a current Minwise64 manifest into the v3 wire form: same
// layout minus the sketch-tag word (its buffered values are full-width at
// that backend's width), checksum recomputed. This is what v3 deployments
// have on disk.
func encodeV3(f testing.TB, x *Index) []byte {
	f.Helper()
	b := x.AppendBinary(nil)
	v3 := append([]byte(nil), b[:16]...)
	binary.LittleEndian.PutUint32(v3[4:], liveVersionV3)
	v3 = append(v3, b[20:len(b)-8]...)
	return binary.LittleEndian.AppendUint64(v3, crc64.Checksum(v3, crcTable))
}

// fuzzLoadSeedIndex is a miniature goldenIndex under the given backend: one
// sealed segment, buffered entries, and tombstones, at NumHash 16 so the seed
// manifests stay a few KB — the fuzzer minimizes every coverage-expanding
// mutation, and that cost scales with seed size.
func fuzzLoadSeedIndex(f testing.TB, sb core.SketchBackend) *Index {
	f.Helper()
	h := minhash.NewHasher(16, 5)
	recs := make([]domain.Record, 20)
	for i := range recs {
		sig := h.NewSignature()
		for j := 0; j < 10+i; j++ {
			h.PushHashed(sig, minhash.HashUint64(uint64(i*64+j)))
		}
		recs[i] = domain.Record{Key: string(rune('a' + i)), Size: 10 + i, Sig: sig}
	}
	x, err := Build(recs[:12], Options{
		Options:          core.Options{NumHash: 16, RMax: 4, NumPartitions: 3, Sketch: sb},
		SealThreshold:    8,
		ManualCompaction: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range recs[12:17] {
		if _, err := x.Add(r); err != nil {
			f.Fatal(err)
		}
	}
	x.Flush()
	x.Delete(recs[2].Key)
	x.Delete(recs[13].Key)
	for _, r := range recs[17:] {
		if _, err := x.Add(r); err != nil {
			f.Fatal(err)
		}
	}
	return x
}

// FuzzLoad feeds the snapshot loader hostile manifests across every wire
// version (v1/v2 legacy, v3 checksummed, v4 sketch-tagged, v5 with the
// buffer at the sketch width). The loader's
// contract: never panic, bound every allocation by the remaining bytes,
// and any accepted index must be queryable and re-save into a manifest
// that loads back to the same logical state.
func FuzzLoad(f *testing.F) {
	x := fuzzLoadSeedIndex(f, core.Minwise64)
	defer x.Close()
	narrow := fuzzLoadSeedIndex(f, core.Minwise32) // what a zero Options writes
	defer narrow.Close()
	f.Add(x.AppendBinary(nil)) // current v5
	f.Add(narrow.AppendBinary(nil))
	f.Add(encodeLegacy(f, x, liveVersionV1, nil))
	f.Add(encodeLegacy(f, x, liveVersionV2, nil))
	f.Add(encodeV3(f, x))
	f.Add([]byte{})
	f.Add([]byte("LIVE"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Empty DataDir: fileref segments are rejected cleanly, so the
		// fuzzer can't be tricked into touching the filesystem.
		got, err := Load(bytes.NewReader(data), Options{ManualCompaction: true})
		if err != nil {
			return
		}
		defer got.Close()
		if got.Len() < 0 {
			t.Fatalf("negative Len")
		}
		// Probe the query path, unless the header claims an absurd
		// signature length (the loader is payload-bounded; the test's own
		// query signature would not be).
		if nh := got.opts.NumHash; nh <= 1<<12 {
			sig := make(minhash.Signature, nh)
			_ = got.Query(sig, 1, 0.5)
		}
		re := got.AppendBinary(nil)
		again, err := Load(bytes.NewReader(re), Options{ManualCompaction: true})
		if err != nil {
			t.Fatalf("re-save of accepted manifest rejected: %v", err)
		}
		defer again.Close()
		if again.Len() != got.Len() {
			t.Fatalf("round trip changed Len: %d -> %d", got.Len(), again.Len())
		}
	})
}

// fuzzSegSeed builds one sealed segment under the given backend and
// returns its segment-file byte image.
func fuzzSegSeed(f *testing.F, sb core.SketchBackend) []byte {
	f.Helper()
	h := minhash.NewHasher(16, 9)
	recs := make([]domain.Record, 10)
	for i := range recs {
		sig := h.NewSignature()
		for j := 0; j < 12+i; j++ {
			h.PushHashed(sig, minhash.HashUint64(uint64(i*50+j)))
		}
		recs[i] = domain.Record{Key: string(rune('a' + i)), Size: 12 + i, Sig: sig}
	}
	x, err := Build(recs, Options{
		Options:          core.Options{NumHash: 16, RMax: 4, NumPartitions: 3, Sketch: sb},
		ManualCompaction: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	defer x.Close()
	sn := x.snap.Load()
	if len(sn.segs) != 1 {
		f.Fatalf("seed index sealed %d segments, want 1", len(sn.segs))
	}
	return segmentImage(sn.segs[0])
}

// FuzzSegmentImage attacks the out-of-core segment-file parser through an
// in-memory backing — the same code path a hostile file on disk reaches,
// without the fuzzer touching the filesystem. Accepted segments must be
// structurally sound and queryable.
func FuzzSegmentImage(f *testing.F) {
	f.Add(fuzzSegSeed(f, core.Minwise64))
	f.Add(fuzzSegSeed(f, core.Minwise32))
	f.Add(fuzzSegSeed(f, core.Minwise16))
	f.Add([]byte{})
	f.Add([]byte("LSG1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sb := range []core.SketchBackend{core.Minwise64, core.Minwise32, core.Minwise16} {
			seg, err := openSegmentImage(segfile.FromBytes(data), 16, 4, sb, true)
			if err != nil {
				continue
			}
			n := seg.idx.Len()
			if n < 1 {
				t.Fatalf("accepted segment with %d records", n)
			}
			if len(seg.seqs) != n {
				t.Fatalf("%d seqs for %d records", len(seg.seqs), n)
			}
			if seg.idx.Sketch() != sb {
				t.Fatalf("segment sketch %v, opened as %v", seg.idx.Sketch(), sb)
			}
			sig := make(minhash.Signature, 16)
			ids, err := seg.idx.QueryIDsAppend(nil, sig, 1, 0.5)
			if err != nil {
				t.Fatalf("query on accepted segment: %v", err)
			}
			for _, id := range ids {
				_ = seg.idx.Key(id)
			}
		}
	})
}
