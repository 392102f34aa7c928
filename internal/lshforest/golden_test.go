package lshforest

import (
	"bytes"
	"encoding/hex"
	"testing"

	"lshensemble/internal/xrand"
)

// forestGoldenHex is the AppendBinary output of the pre-flattening forest
// implementation (signatures stored as per-entry []uint64 slices) over a
// deterministic corpus: New(8, 2); six entries with ids 0, 7, ..., 35 and
// signatures drawn as xrand.New(3).Uint64() % 16. The wire format is
// layout-independent, so the flat-store implementation must decode these
// bytes and produce byte-identical re-encodings.
const forestGoldenHex = "4c534846080000000200000006000000000000000d00000000000000090000000000000001000000000000000f000000" +
	"000000000600000000000000070000000000000008000000000000000600000000000000070000000a00000000000000" +
	"02000000000000000c000000000000000f00000000000000040000000000000003000000000000000c00000000000000" +
	"0a000000000000000e0000000600000000000000050000000000000008000000000000000d0000000000000002000000" +
	"000000000600000000000000030000000000000001000000000000001500000004000000000000000500000000000000" +
	"04000000000000000d000000000000000700000000000000000000000000000001000000000000000100000000000000" +
	"1c000000050000000000000008000000000000000f0000000000000002000000000000000b0000000000000008000000" +
	"000000000400000000000000000000000000000023000000030000000000000000000000000000000f00000000000000" +
	"0000000000000000000000000000000003000000000000000b000000000000000100000000000000"

// goldenForestInputs regenerates the exact (id, sig) stream the golden
// bytes were produced from.
func goldenForestInputs() ([]uint32, [][]uint64) {
	rng := xrand.New(3)
	ids := make([]uint32, 6)
	sigs := make([][]uint64, 6)
	for i := range sigs {
		sig := make([]uint64, 8)
		for k := range sig {
			sig[k] = rng.Uint64() % 16
		}
		ids[i] = uint32(i * 7)
		sigs[i] = sig
	}
	return ids, sigs
}

// TestForestGoldenDecode proves the flattened store decodes bytes produced
// by the old per-slice layout: same shape, same query results, and a
// byte-identical re-encoding.
func TestForestGoldenDecode(t *testing.T) {
	golden, err := hex.DecodeString(forestGoldenHex)
	if err != nil {
		t.Fatal(err)
	}
	f, rest, err := DecodeForest(golden)
	if err != nil {
		t.Fatalf("golden bytes from the old layout failed to decode: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	if f.NumHash() != 8 || f.RMax() != 2 || f.Len() != 6 {
		t.Fatalf("decoded shape (%d, %d, %d), want (8, 2, 6)",
			f.NumHash(), f.RMax(), f.Len())
	}

	ids, sigs := goldenForestInputs()
	live := build(8, 2, 8, ids, sigs)

	// Every stored signature survives the round trip bit-for-bit.
	for i, id := range f.IDs() {
		if id != ids[i] {
			t.Fatalf("entry %d: id %d, want %d", i, id, ids[i])
		}
		for k, v := range f.AppendSigWidened(nil, i) {
			if v != sigs[i][k] {
				t.Fatalf("entry %d slot %d: %d, want %d", i, k, v, sigs[i][k])
			}
		}
	}

	// Query equivalence between the decoded and the freshly built forest.
	for qi := range sigs {
		for _, br := range [][2]int{{1, 1}, {2, 2}, {4, 1}, {4, 2}} {
			want := map[uint32]int{}
			got := map[uint32]int{}
			live.Query(sigs[qi], br[0], br[1], nil, func(id uint32) bool { want[id]++; return true })
			f.Query(sigs[qi], br[0], br[1], nil, func(id uint32) bool { got[id]++; return true })
			if len(want) != len(got) {
				t.Fatalf("q=%d b=%d r=%d: %v vs %v", qi, br[0], br[1], got, want)
			}
			for id, c := range want {
				if got[id] != c {
					t.Fatalf("q=%d b=%d r=%d: id %d seen %d times, want %d",
						qi, br[0], br[1], id, got[id], c)
				}
			}
		}
	}

	// Re-encoding is byte-identical (the format did not drift).
	if !bytes.Equal(f.AppendBinary(nil), golden) {
		t.Fatal("re-encoded bytes differ from the golden fixture")
	}
	if !bytes.Equal(live.AppendBinary(nil), golden) {
		t.Fatal("freshly built forest encodes differently from the golden fixture")
	}
}

// TestDecodeHostileHeader feeds headers whose n * (4 + 8*numHash) product
// overflows 63 bits; the decoder must reject them without allocating or
// panicking.
func TestDecodeHostileHeader(t *testing.T) {
	mk := func(numHash, rMax, n uint32) []byte {
		buf := []byte{'L', 'S', 'H', 'F'}
		for _, v := range []uint32{numHash, rMax, n} {
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		// A little trailing data so the header itself is well-formed.
		return append(buf, make([]byte, 64)...)
	}
	cases := map[string][]byte{
		"overflowing product": mk(0xFFFFFFF0, 1, 0xFFFFFFF0),
		"huge n":              mk(8, 2, 0xFFFFFFFF),
		"huge numHash":        mk(0x7FFFFFFF, 1, 2),
		"n exceeds buffer":    mk(8, 2, 1000),
		"zero numHash":        mk(0, 0, 1),
		"rMax above numHash":  mk(4, 8, 1),
		"high-bit n":          mk(8, 2, 0x80000000),
		"max everything":      mk(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
	}
	for name, buf := range cases {
		if _, _, err := DecodeForest(buf); err == nil {
			t.Errorf("%s: decode accepted a hostile header", name)
		}
	}

	// An empty forest with an absurd declared numHash is format-valid but
	// must decode without allocating anything proportional to numHash.
	f, _, err := DecodeForest(mk(0xFFFFFFF0, 1, 0))
	if err != nil {
		t.Fatalf("empty forest with huge numHash should decode: %v", err)
	}
	if f.Len() != 0 {
		t.Fatalf("decoded %d entries, want 0", f.Len())
	}
	f.Query(make([]uint64, 1), 1, 1, nil, func(uint32) bool {
		t.Fatal("empty forest produced a candidate")
		return false
	})
}

func BenchmarkForestQueryAllocs(b *testing.B) {
	rng := xrand.New(1)
	const m, rMax = 256, 8
	sigs, ids := randSigs(rng, 10000, m, 1<<20)
	f := build(m, rMax, 8, ids, sigs)
	q := sigs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Query(q, 32, 4, nil, func(id uint32) bool { return true })
	}
}
