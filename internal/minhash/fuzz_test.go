package minhash

import (
	"bytes"
	"testing"
)

// FuzzDecodeSignature hammers the signature decoder with hostile bytes: it
// must never panic or over-allocate, and anything it accepts must re-encode
// to the exact input it consumed (decode ∘ encode = identity on the accepted
// language).
func FuzzDecodeSignature(f *testing.F) {
	h := NewHasher(16, 1)
	sig := h.NewSignature()
	for i := uint64(0); i < 40; i++ {
		h.PushHashed(sig, HashUint64(i))
	}
	f.Add(sig.AppendBinary(nil))
	f.Add(h.NewSignature().AppendBinary(nil)) // all-Empty signature
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, rest, err := DecodeSignature(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		re := s.AppendBinary(nil)
		if consumed := data[:len(data)-len(rest)]; !bytes.Equal(re, consumed) {
			t.Fatalf("re-encode mismatch: %d bytes vs %d consumed", len(re), len(consumed))
		}
	})
}
