package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"lshensemble/internal/domain"
	"lshensemble/internal/minhash"
)

// fuzzSeedIndex builds a tiny index under the given backend for the seed
// corpus.
func fuzzSeedIndex(f *testing.F, sb SketchBackend) []byte {
	f.Helper()
	h := minhash.NewHasher(16, 1)
	recs := make([]domain.Record, 12)
	for i := range recs {
		sig := h.NewSignature()
		for j := uint64(0); j < uint64(8+i); j++ {
			h.PushHashed(sig, minhash.HashUint64(uint64(i)*100+j))
		}
		recs[i] = domain.Record{Key: string(rune('a' + i)), Size: 8 + i, Sig: sig}
	}
	idx, err := Build(recs, Options{NumHash: 16, RMax: 4, NumPartitions: 3, Sketch: sb})
	if err != nil {
		f.Fatal(err)
	}
	return idx.AppendBinary(nil)
}

// retagged returns a copy of an "LSE2" encoding tagged tag: 1 is the retired
// 8-bit backend and 2 the retired 16-bit one with 16-bit band leads, which
// Decode refuses.
func retagged(enc []byte, tag uint32) []byte {
	b := bytes.Clone(enc)
	binary.LittleEndian.PutUint32(b[4:], tag)
	return b
}

// FuzzDecode throws hostile bytes at the ensemble decoder (both the legacy
// "LSHE" and backend-tagged "LSE2" framings). Accepted indexes must be
// queryable, and their canonical re-encoding must be a decode fixed point.
func FuzzDecode(f *testing.F) {
	f.Add(fuzzSeedIndex(f, Minwise64))
	f.Add(fuzzSeedIndex(f, Minwise32))
	f.Add(fuzzSeedIndex(f, Minwise16))
	f.Add(retagged(fuzzSeedIndex(f, Minwise16), 1))
	f.Add([]byte{})
	f.Add([]byte("LSHE"))
	f.Add([]byte("LSE2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, rest, err := Decode(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew")
		}
		if idx.Len() < 0 || !idx.Sketch().Valid() {
			t.Fatalf("inconsistent decoded index: len=%d sketch=%v", idx.Len(), idx.Sketch())
		}
		// A decoded index must answer queries without panicking. Skip the
		// probe when the header claims an absurd signature length — the
		// decoder's allocations are payload-bounded, but the test's own
		// query signature would not be.
		if nh := idx.Options().NumHash; nh <= 1<<12 {
			sig := make(minhash.Signature, nh)
			mustQuery(t, idx, sig, 1, 0.5)
		}
		// The decoder accepts the tagged "LSE2" framing even for Minwise64,
		// which re-encodes under the legacy "LSHE" magic — so identity with
		// the input is not guaranteed. The canonical re-encoding must be a
		// fixed point instead: decode it again, same shape, same bytes.
		re := idx.AppendBinary(nil)
		idx2, rest2, err := Decode(re)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("canonical re-encode rejected: %v (%d trailing)", err, len(rest2))
		}
		if idx2.Len() != idx.Len() || idx2.Sketch() != idx.Sketch() ||
			idx2.Options().NumHash != idx.Options().NumHash {
			t.Fatalf("round trip changed shape")
		}
		if re2 := idx2.AppendBinary(nil); !bytes.Equal(re, re2) {
			t.Fatalf("canonical encoding not a fixed point: %d vs %d bytes", len(re), len(re2))
		}
	})
}
