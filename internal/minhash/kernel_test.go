package minhash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"

	"lshensemble/internal/xrand"
)

// goldenSketchDigest is the SHA-256 of the signatures TestSketchStringsGolden
// builds, each written as its little-endian slot count and then its slots,
// recorded with the scalar kernel that predates the vector one: any
// change to the permutation arithmetic changes every stored signature and
// every answer, and fails here first.
const goldenSketchDigest = "e5a7b49cc1789f67579e094a693515f514b296edd52f7a0a27714ac92b1137ac"

// logKernel logs which kernel PushHashedBlock runs on this CPU and reports
// whether there is a vector kernel to compare with the scalar one.
func logKernel(tb testing.TB) bool {
	tb.Helper()
	if haveAVX512 {
		tb.Log("kernel: AVX-512F for every full group of eight slots, scalar for the rest")
	} else {
		tb.Log("kernel: scalar only (no AVX-512F); the vector comparison is skipped")
	}
	return haveAVX512
}

func TestSketchStringsGolden(t *testing.T) {
	logKernel(t)
	h := NewHasher(256, 42)
	d := sha256.New()
	for _, n := range []int{0, 1, 2, 7, 8, 9, 100, 255, 256, 257, 600, 4096} {
		values := make([]string, n)
		for i := range values {
			values[i] = fmt.Sprintf("golden-%d-%d", n, i)
		}
		sig := h.SketchStrings(values)
		buf := binary.LittleEndian.AppendUint64(nil, uint64(len(sig)))
		for _, v := range sig {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		d.Write(buf)
	}
	if got := hex.EncodeToString(d.Sum(nil)); got != goldenSketchDigest {
		t.Fatalf("SketchStrings digest %s, want %s", got, goldenSketchDigest)
	}
}

// edgeOperands are multipliers, offsets and values on the kernels' seams: 0
// and 1, the top of the field, either side of the 32-bit split, and high
// halves saturated at 29 bits (the most a word below 2^61 has).
var edgeOperands = []uint64{
	0, 1, 2, 7,
	MersennePrime - 1, MersennePrime - 2, MersennePrime,
	1<<32 - 1, 1 << 32, 1<<32 + 1,
	(1<<29 - 1) << 32, (1<<29-1)<<32 | 1, (1<<29-1)<<32 | (1<<32 - 1),
	1 << 60,
}

// edgeHasher is an m-slot family whose first slots pair every edge
// multiplier with an edge offset and whose remaining slots are random.
func edgeHasher(m int, rng *xrand.RNG) *Hasher {
	h := &Hasher{a: make([]uint64, m), b: make([]uint64, m)}
	for i := range h.a {
		if i < len(edgeOperands)*len(edgeOperands) {
			h.a[i] = edgeOperands[i%len(edgeOperands)]
			h.b[i] = edgeOperands[(i/len(edgeOperands)+i)%len(edgeOperands)]
		} else {
			h.a[i] = rng.Uint64() >> 3
			h.b[i] = rng.Uint64() >> 3
		}
	}
	return h
}

// scalarSketch is the reference: pushScalar over every slot, in the chunks
// PushHashedBlock uses, onto a copy of start.
func scalarSketch(h *Hasher, start Signature, hvs []uint64) Signature {
	sig := start.Clone()
	for len(hvs) > 0 {
		n := min(len(hvs), sketchBlockSize)
		pushScalar(sig, h.a, h.b, hvs[:n])
		hvs = hvs[n:]
	}
	return sig
}

// TestVectorKernelMatchesScalar: PushHashedBlock (vector kernel on full
// groups of eight slots, scalar on the tail) equals the scalar kernel slot
// for slot, for every tail length and across chunk boundaries, from an empty
// signature and from one that already holds minima.
func TestVectorKernelMatchesScalar(t *testing.T) {
	if !logKernel(t) {
		t.Skip("no AVX-512F: PushHashedBlock is the scalar kernel")
	}
	rng := xrand.New(11)
	ms := []int{64, 256}
	for m := 1; m <= 17; m++ {
		ms = append(ms, m)
	}
	for _, m := range ms {
		h := edgeHasher(m, rng)
		for _, n := range []int{0, 1, 255, 256, 257, 600} {
			hvs := make([]uint64, n)
			for j := range hvs {
				if j < len(edgeOperands) {
					hvs[j] = edgeOperands[(j+m)%len(edgeOperands)]
				} else {
					hvs[j] = rng.Uint64() >> 3
				}
			}
			start := h.NewSignature()
			for k := range start {
				if k%3 == 1 {
					start[k] = rng.Uint64() >> 3
				}
			}
			for _, from := range []Signature{h.NewSignature(), start} {
				want := scalarSketch(h, from, hvs)
				got := from.Clone()
				h.PushHashedBlock(got, hvs)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("m=%d n=%d slot %d (a=%#x b=%#x): vector %#x, scalar %#x",
							m, n, k, h.a[k], h.b[k], got[k], want[k])
					}
				}
			}
		}
	}
}

// TestReductionBoundaries lands a·v + b on chosen residues mod p. Every
// nonzero multiple of p folds to exactly p in the scalar kernel
// ((k·p) >> 61 = k − 1 and (k·p) & p = p − (k − 1)), so residue 0 is where its
// conditional subtract must fire; residues 1, 7 and p − 1 sit either side of
// it and of the vector kernel's final min(s, s − p) over s ≤ p + 7.
func TestReductionBoundaries(t *testing.T) {
	vector := logKernel(t)
	rng := xrand.New(5)
	p := new(big.Int).SetUint64(MersennePrime)
	residues := []uint64{0, 1, 7, MersennePrime - 1}
	values := append(append([]uint64(nil), edgeOperands...), rng.Uint64()>>3, rng.Uint64()>>3)
	for _, v := range values {
		h := edgeHasher(64, rng)
		want := make([]uint64, len(h.a))
		for i := range h.a {
			h.a[i] %= MersennePrime
			r := residues[i%len(residues)]
			// b = (r − a·v) mod p, so that a·v + b ≡ r.
			av := new(big.Int).Mul(new(big.Int).SetUint64(h.a[i]), new(big.Int).SetUint64(v))
			b := new(big.Int).Sub(new(big.Int).SetUint64(r), av)
			h.b[i] = b.Mod(b, p).Uint64()
			want[i] = r
			if got := mulAddMod61(h.a[i], v, h.b[i]); got != r {
				t.Errorf("mulAddMod61(%#x, %#x, %#x) = %#x, want %#x", h.a[i], v, h.b[i], got, r)
			}
		}
		if !vector {
			continue
		}
		sig := h.NewSignature()
		h.PushHashed(sig, v)
		for i := range sig {
			if sig[i] != want[i] {
				t.Errorf("vector v=%#x slot %d (a=%#x b=%#x): %#x, want %#x", v, i, h.a[i], h.b[i], sig[i], want[i])
			}
		}
	}
}

// FuzzPushHashedBlock: for any family, any values below 2^61 and one slot's
// operands chosen outright, PushHashedBlock equals the scalar kernel.
func FuzzPushHashedBlock(f *testing.F) {
	if !logKernel(f) {
		f.Skip("no AVX-512F: PushHashedBlock is the scalar kernel")
	}
	le := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	f.Add(uint16(256), uint64(42), uint64(1), uint64(0), le(1, 2, 3))
	f.Add(uint16(13), uint64(7), MersennePrime-1, MersennePrime-1, le(MersennePrime-1, MersennePrime-2))
	f.Add(uint16(8), uint64(8), uint64(1<<32-1), uint64(1<<32), le(1<<32-1, 1<<32, (1<<29-1)<<32))
	f.Add(uint16(67), uint64(3), uint64(1)<<63, uint64(1)<<63, le(1<<63, 1<<64-1, 0))
	f.Fuzz(func(t *testing.T, m uint16, seed, a, b uint64, data []byte) {
		h := NewHasher(1+int(m%300), seed)
		slot := int(seed % uint64(len(h.a)))
		// Scaled to the kernels' domain: a, b and every value below 2^61.
		h.a[slot], h.b[slot] = a>>3, b>>3
		hvs := make([]uint64, len(data)/8)
		for i := range hvs {
			hvs[i] = binary.LittleEndian.Uint64(data[8*i:]) >> 3
		}
		want := scalarSketch(h, h.NewSignature(), hvs)
		got := h.NewSignature()
		h.PushHashedBlock(got, hvs)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("m=%d n=%d slot %d (a=%#x b=%#x): vector %#x, scalar %#x",
					len(h.a), len(hvs), k, h.a[k], h.b[k], got[k], want[k])
			}
		}
	})
}

// FuzzMatchesMasked: for any length (the empty one and every tail of fewer
// than eight slots included) and any pattern of agreeing slots, Matches
// equals the scalar count at every store width: the stored values are a's
// cut to the width, the query b full-width.
func FuzzMatchesMasked(f *testing.F) {
	if !logKernel(f) {
		f.Skip("no AVX-512F: Matches is the scalar loop")
	}
	f.Add(uint16(0), uint64(1), []byte{})
	f.Add(uint16(256), uint64(2), []byte{0, 1, 2, 3})
	f.Add(uint16(13), uint64(3), []byte{1})
	f.Add(uint16(71), uint64(4), []byte{2, 2, 0, 3, 1})
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, pattern []byte) {
		rng := xrand.New(seed)
		a := make([]uint64, int(n)%300)
		b := make([]uint64, len(a))
		for i := range a {
			a[i] = rng.Uint64()
			b[i] = a[i]
			if len(pattern) == 0 {
				continue
			}
			switch r := rng.Uint64(); pattern[i%len(pattern)] % 4 {
			case 1: // differs only above the low 16 bits: agrees at width 2
				b[i] ^= r &^ 0xffff
			case 2: // differs in one bit
				b[i] ^= 1 << (r % 64)
			case 3:
				b[i] = r
			}
		}
		matchesAt[uint16](t, a, b)
		matchesAt[uint32](t, a, b)
		matchesAt[uint64](t, a, b)
	})
}

// matchesAt stores a at E's width and fails t unless Matches against the
// full-width b equals the scalar count under E's mask.
func matchesAt[E uint16 | uint32 | uint64](t *testing.T, a, b []uint64) {
	t.Helper()
	s := make([]E, len(a))
	mask := uint64(^E(0))
	want := 0
	for i := range a {
		s[i] = E(a[i])
		if (a[i]^b[i])&mask == 0 {
			want++
		}
	}
	if got := Matches(s, b); got != want {
		t.Fatalf("len %d mask %#x: Matches %d, scalar %d", len(a), mask, got, want)
	}
}

// BenchmarkKernel reports the cost per (value, slot) of the kernel
// PushHashedBlock dispatches to and of the scalar kernel alone, at m = 256
// over one full chunk of values.
func BenchmarkKernel(b *testing.B) {
	logKernel(b)
	h := NewHasher(256, 1)
	hvs := make([]uint64, sketchBlockSize)
	for i := range hvs {
		hvs[i] = HashUint64(uint64(i))
	}
	sig := h.NewSignature()
	for _, k := range []struct {
		name string
		push func()
	}{
		{"dispatch", func() { h.PushHashedBlock(sig, hvs) }},
		{"scalar", func() { pushScalar(sig, h.a, h.b, hvs) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.push()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(hvs)*len(h.a)), "ns/slot-value")
		})
	}
	sinkSig = sig
}
