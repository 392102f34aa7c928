package core

import (
	"math"
	"testing"

	"lshensemble/internal/domain"
	"lshensemble/internal/minhash"
	"lshensemble/internal/xrand"
)

// TestSketchBackendProperties pins the enum's static surface: widths, masks,
// lead widths and masks, names and the wire-tag round trip (tags 0, 3 and 4,
// as before the zero value became SketchUnset; minwise16's 32-bit band leads
// took KMV's old tag 4, which no file carried); "kmv", the name and tag (1)
// of the retired 8-bit backend and tag 2, the 16-bit backend whose band leads
// were 16 bits too, are refused like any unknown name or tag, and so is the
// unset value, which only Options.WithDefaults (Minwise16) or a loaded file
// resolves.
func TestSketchBackendProperties(t *testing.T) {
	cases := []struct {
		sb       SketchBackend
		name     string
		width    int
		mask     uint64
		lead     int
		leadMask uint64
		tag      uint32
	}{
		{Minwise64, "minwise64", 8, ^uint64(0), 8, ^uint64(0), 0},
		{Minwise16, "minwise16", 2, 0xffff, 4, 0xffffffff, 4},
		{Minwise32, "minwise32", 4, 0xffffffff, 4, 0xffffffff, 3},
	}
	for _, tc := range cases {
		if tc.sb.String() != tc.name {
			t.Errorf("%v: String = %q, want %q", tc.sb, tc.sb.String(), tc.name)
		}
		if tc.sb.WidthBytes() != tc.width {
			t.Errorf("%s: WidthBytes = %d, want %d", tc.name, tc.sb.WidthBytes(), tc.width)
		}
		if tc.sb.Mask() != tc.mask {
			t.Errorf("%s: Mask = %#x, want %#x", tc.name, tc.sb.Mask(), tc.mask)
		}
		if tc.sb.LeadBytes() != tc.lead || tc.sb.LeadMask() != tc.leadMask {
			t.Errorf("%s: LeadBytes, LeadMask = %d, %#x, want %d, %#x", tc.name, tc.sb.LeadBytes(), tc.sb.LeadMask(), tc.lead, tc.leadMask)
		}
		if !tc.sb.Valid() || tc.sb.Tag() != tc.tag {
			t.Errorf("%s: Valid = %v, Tag = %d, want true, %d", tc.name, tc.sb.Valid(), tc.sb.Tag(), tc.tag)
		}
		parsed, err := ParseSketchBackend(tc.name)
		if err != nil || parsed != tc.sb {
			t.Errorf("ParseSketchBackend(%q) = %v, %v", tc.name, parsed, err)
		}
		rt, ok := SketchBackendFromTag(tc.sb.Tag())
		if !ok || rt != tc.sb {
			t.Errorf("%s: tag round trip gave %v, %v", tc.name, rt, ok)
		}
	}
	if SketchUnset.Valid() || SketchUnset.String() != "unset" {
		t.Errorf("SketchUnset: Valid = %v, String = %q, want false, \"unset\"", SketchUnset.Valid(), SketchUnset)
	}
	if sb := (Options{}).WithDefaults().Sketch; sb != Minwise16 {
		t.Errorf("the zero Options resolve to %s, want minwise16", sb)
	}
	for _, name := range []string{"minwise128", "kmv", "minwise8", "", "unset"} {
		if sb, err := ParseSketchBackend(name); err == nil {
			t.Errorf("ParseSketchBackend(%q) = %v, want an error", name, sb)
		}
	}
	for _, tag := range []uint32{1, 2, 5, 99, 256, 1 << 16} {
		if sb, ok := SketchBackendFromTag(tag); ok {
			t.Errorf("SketchBackendFromTag(%d) = %v, want it refused", tag, sb)
		}
		if tag < 255 && SketchBackend(tag+1).Valid() {
			t.Errorf("SketchBackend(%d) is valid", tag+1)
		}
	}
}

// TestJaccardFromMatchCorrection is the table-driven closed-form check of
// the b-bit collision-probability correction Ĵ = (p̂ − 2⁻ᵇ)/(1 − 2⁻ᵇ):
// feeding the expected agreement p = J + (1−J)·2⁻ᵇ back through the
// estimator must recover J exactly (up to float rounding).
func TestJaccardFromMatchCorrection(t *testing.T) {
	for _, sb := range []SketchBackend{Minwise16, Minwise32} {
		r := 1 / float64(uint64(1)<<sb.Bits())
		for _, j := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			const m = 1 << 20 // large m so eq = round(p·m) loses little precision
			p := j + (1-j)*r
			eq := int(math.Round(p * m))
			got := sb.JaccardFromMatch(eq, m)
			if math.Abs(got-j) > 1e-5 {
				t.Errorf("%s: J=%v → p=%v → Ĵ=%v", sb, j, p, got)
			}
		}
		// At or below the chance floor the estimate clamps to zero.
		if got := sb.JaccardFromMatch(0, 1000); got != 0 {
			t.Errorf("%s: JaccardFromMatch(0) = %v, want 0", sb, got)
		}
		floorEq := int(r * 1e6)
		if got := sb.JaccardFromMatch(floorEq, 1e6); got > 1e-9 {
			t.Errorf("%s: chance-floor agreement gave %v, want ~0", sb, got)
		}
	}
	// Minwise64 applies no correction: the raw fraction is the estimate.
	if got := Minwise64.JaccardFromMatch(64, 128); got != 0.5 {
		t.Errorf("Minwise64: JaccardFromMatch(64, 128) = %v, want 0.5", got)
	}
	// Degenerate inputs.
	for _, sb := range []SketchBackend{Minwise64, Minwise16} {
		if got := sb.JaccardFromMatch(5, 0); got != 0 {
			t.Errorf("%s: m=0 gave %v", sb, got)
		}
	}
}

// TestContainmentFromMatchMinwise64Identity: under the full-width backend the
// match-count path must be float-identical to minhash.Signature.Containment
// — the invariant that keeps planned results byte-stable across the
// refactor that introduced the backends.
func TestContainmentFromMatchMinwise64Identity(t *testing.T) {
	rng := xrand.New(17)
	h := minhash.NewHasher(64, 7)
	for trial := 0; trial < 50; trial++ {
		a, b := h.NewSignature(), h.NewSignature()
		for i := 0; i < 30; i++ {
			v := minhash.HashUint64(rng.Uint64())
			h.PushHashed(a, v)
			if i%2 == 0 {
				h.PushHashed(b, v)
			} else {
				h.PushHashed(b, minhash.HashUint64(rng.Uint64()))
			}
		}
		eq := 0
		for i := range a {
			if a[i] == b[i] {
				eq++
			}
		}
		q := float64(1 + trial%7)
		x := float64(1 + trial%11)
		want := a.Containment(b, q, x)
		got := Minwise64.ContainmentFromMatch(eq, len(a), q, x)
		if got != want {
			t.Fatalf("trial %d: ContainmentFromMatch = %v, Signature.Containment = %v", trial, got, want)
		}
	}
	// Zero query cardinality short-circuits, like the signature path.
	if got := Minwise64.ContainmentFromMatch(10, 10, 0, 5); got != 0 {
		t.Errorf("q=0 gave %v", got)
	}
	// The estimate clamps at 1 for oversized stored domains.
	if got := Minwise16.ContainmentFromMatch(1000, 1000, 1, 100); got != 1 {
		t.Errorf("clamp gave %v", got)
	}
}

// TestBBitTruncationEstimate is the end-to-end statistical check: sketch two
// domains of known Jaccard, truncate to b bits, and require the corrected
// estimate to track the full-width estimate within sampling noise.
func TestBBitTruncationEstimate(t *testing.T) {
	const m = 256
	h := minhash.NewHasher(m, 11)
	mk := func(lo, hi uint64) minhash.Signature {
		vals := make([]uint64, 0, hi-lo)
		for v := lo; v < hi; v++ {
			vals = append(vals, minhash.HashUint64(v))
		}
		return h.Sketch(vals)
	}
	a := mk(0, 4000)
	b := mk(2000, 6000) // true J = 2000/6000 = 1/3
	full := a.Jaccard(b)
	for _, sb := range []SketchBackend{Minwise16, Minwise32} {
		mask := sb.Mask()
		eq := 0
		for i := range a {
			if a[i]&mask == b[i]&mask {
				eq++
			}
		}
		got := sb.JaccardFromMatch(eq, m)
		// b-bit truncation adds binomial noise on top of the shared MinHash
		// sample; 5/√m bounds the drift from the full-width estimate.
		if tol := 5 / math.Sqrt(m); math.Abs(got-full) > tol {
			t.Errorf("%s: corrected Ĵ = %.4f, full-width %.4f (tol %.4f)", sb, got, full, tol)
		}
	}
}

// TestOptionsRejectNonIndexableSketch: nothing but the three backends can
// back an Index store — not the two values after Minwise64, the retired 8-bit
// backend's and the retired 16-bit one's with 16-bit band leads, nor the one
// after Minwise16.
func TestOptionsRejectNonIndexableSketch(t *testing.T) {
	recs := []domain.Record{{Key: "a", Size: 3, Sig: make(minhash.Signature, 256)}}
	for _, sb := range []SketchBackend{Minwise64 + 1, Minwise64 + 2, Minwise16 + 1, 42} {
		if _, err := Build(recs, Options{Sketch: sb}); err == nil {
			t.Errorf("Build accepted the undefined backend %d", sb)
		}
	}
}
