package lshforest

import (
	"testing"
)

// FuzzDecodeForest feeds the forest decoder hostile bytes. The decoder's
// contract: never panic, never allocate unboundedly (header fields are
// validated against the real buffer length), and any accepted forest is
// fully usable — its canonical re-encoding decodes to the same shape and is
// a byte-level fixed point.
func FuzzDecodeForest(f *testing.F) {
	for _, width := range []int{8, 2} {
		mask := ^uint64(0)
		if width < 8 {
			mask = (uint64(1) << (8 * width)) - 1
		}
		ids := make([]uint32, 10)
		sigs := make([][]uint64, 10)
		for id := range ids {
			ids[id], sigs[id] = uint32(id), make([]uint64, 16)
			for j := range sigs[id] {
				sigs[id][j] = (uint64(id)*0x9e3779b97f4a7c15 + uint64(j)) & mask
			}
		}
		f.Add(build(16, 4, width, ids, sigs).AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add([]byte("LSHF"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, rest, err := DecodeForest(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew")
		}
		if fr.Len() < 0 {
			t.Fatalf("negative Len")
		}
		// The decoder accepts one non-canonical framing (V2 magic carrying
		// width 8, re-encoded as the legacy magic), so identity with the
		// input is not guaranteed — but the canonical re-encoding must be a
		// fixed point: decode it again and get byte-identical output.
		re := fr.AppendBinary(nil)
		fr2, rest2, err := DecodeForest(re)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("canonical re-encode rejected: %v (%d trailing)", err, len(rest2))
		}
		if fr2.Len() != fr.Len() || fr2.NumHash() != fr.NumHash() ||
			fr2.RMax() != fr.RMax() || fr2.Width() != fr.Width() {
			t.Fatalf("round trip changed shape")
		}
		re2 := fr2.AppendBinary(nil)
		if len(re2) != len(re) {
			t.Fatalf("canonical encoding not a fixed point: %d vs %d bytes", len(re2), len(re))
		}
		for i := range re {
			if re[i] != re2[i] {
				t.Fatalf("canonical encoding differs at byte %d", i)
			}
		}
	})
}
