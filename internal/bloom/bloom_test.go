package bloom

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"lshensemble/internal/xrand"
)

func TestNoFalseNegativesHash(t *testing.T) {
	rng := xrand.New(1)
	f := New(10000, 14, 10)
	vals := make([]uint64, 10000)
	for i := range vals {
		vals[i] = rng.Uint64() >> 3 // 61-bit, like MinHash values
		f.AddHash(vals[i])
	}
	for _, v := range vals {
		if !f.MayContainHash(v) {
			t.Fatalf("false negative for inserted value %d", v)
		}
	}
}

func TestFalsePositiveRateHash(t *testing.T) {
	rng := xrand.New(2)
	f := New(10000, 14, 10)
	for i := 0; i < 10000; i++ {
		f.AddHash(rng.Uint64())
	}
	fp := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if f.MayContainHash(rng.Uint64()) {
			fp++
		}
	}
	// 14 bits/entry with k=10 targets ~0.1%; the power-of-two rounding can
	// only widen the array, so 1% is a generous ceiling.
	if rate := float64(fp) / trials; rate > 0.01 {
		t.Fatalf("false positive rate %.4f > 0.01", rate)
	}
}

func TestStringsNoFalseNegatives(t *testing.T) {
	f := New(1000, 10, 7)
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = string(rune('a'+i%26)) + "-key-" + string(rune('0'+i%10)) + string(rune('A'+i%7))
		f.AddString(keys[i])
	}
	for _, k := range keys {
		if !f.MayContainString(k) {
			t.Fatalf("false negative for inserted key %q", k)
		}
	}
	if !f.MayContainHash(HashString(keys[0])) {
		t.Fatal("MayContainHash(HashString) disagrees with MayContainString")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := xrand.New(3)
	f := New(500, 14, 10)
	vals := make([]uint64, 500)
	for i := range vals {
		vals[i] = rng.Uint64()
		f.AddHash(vals[i])
	}
	enc := f.AppendBinary(nil)
	enc = append(enc, 0xAB) // trailing byte must survive
	g, rest, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0] != 0xAB {
		t.Fatalf("trailing bytes mishandled: %v", rest)
	}
	if g.K() != f.K() || g.Bits() != f.Bits() {
		t.Fatalf("shape changed: (%d, %d) vs (%d, %d)", g.K(), g.Bits(), f.K(), f.Bits())
	}
	for _, v := range vals {
		if !g.MayContainHash(v) {
			t.Fatalf("decoded filter lost value %d", v)
		}
	}
	if !bytes.Equal(enc[:len(enc)-1], g.AppendBinary(nil)) {
		t.Fatal("re-encoding differs from original encoding")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	good := New(10, 10, 7)
	good.AddString("x")
	enc := good.AppendBinary(nil)
	cases := map[string][]byte{
		"short":          enc[:4],
		"truncated body": enc[:len(enc)-3],
		"zero k":         append([]byte{0, 0, 0, 0}, enc[4:]...),
		"non-pow2 words": append([]byte{7, 0, 0, 0, 3, 0, 0, 0}, make([]byte, 24)...),
	}
	for name, b := range cases {
		if _, _, err := Decode(b); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
	}
}

// TestDecodeRefusesHugeK: every query runs all k probes of a filter, so a
// stored k past 32 is refused, not served. A snapshot whose leads filter
// claimed 2^30 probes used to load and then spend seconds on every query.
func TestDecodeRefusesHugeK(t *testing.T) {
	enc := New(10, 10, 7).AppendBinary(nil)
	withK := func(k uint32) []byte { return binary.LittleEndian.AppendUint32(nil, k) }
	for _, k := range []uint32{33, 1 << 30} {
		if _, _, err := Decode(append(withK(k), enc[4:]...)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("k = %d: err = %v, want ErrCorrupt", k, err)
		}
	}
	if f, _, err := Decode(append(withK(32), enc[4:]...)); err != nil || f.K() != 32 {
		t.Fatalf("k = 32 refused: %v", err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	build := func() *Filter {
		f := New(100, 10, 7)
		for i := 0; i < 100; i++ {
			f.AddHash(uint64(i) * 0x9E3779B97F4A7C15)
		}
		return f
	}
	if !bytes.Equal(build().AppendBinary(nil), build().AppendBinary(nil)) {
		t.Fatal("same insert sequence produced different encodings")
	}
}

// TestAddHashSharedUnderReaders: one writer inserts with AddHashShared while
// readers probe (run under -race). Every value added before a reader starts,
// and every value the writer has published as added since, is reported; and
// the shared insert sets exactly the bits AddHash sets.
func TestAddHashSharedUnderReaders(t *testing.T) {
	rng := xrand.New(4)
	vals := make([]uint64, 4096)
	for i := range vals {
		vals[i] = rng.Uint64() >> 3
	}
	f := New(len(vals), 14, 10)
	half := len(vals) / 2
	for _, v := range vals[:half] {
		f.AddHashShared(v)
	}
	var added atomic.Int64 // a prefix of vals every reader must find
	added.Store(int64(half))
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 8; pass++ {
				n := int(added.Load())
				for i, v := range vals[:n] {
					if !f.MayContainHash(v) {
						t.Errorf("value %d of %d added not reported", i, n)
						return
					}
				}
			}
		}()
	}
	for i, v := range vals[half:] {
		f.AddHashShared(v)
		added.Store(int64(half + i + 1))
	}
	wg.Wait()

	plain := New(len(vals), 14, 10)
	for _, v := range vals {
		plain.AddHash(v)
	}
	if !bytes.Equal(f.AppendBinary(nil), plain.AppendBinary(nil)) {
		t.Fatal("AddHashShared and AddHash of the same values set different bits")
	}
}
