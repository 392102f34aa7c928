package core

import (
	"fmt"

	"lshensemble/internal/lshforest"
)

// SketchBackend selects the signature representation the ensemble stores and
// scores with. All backends consume the same full-width minhash.Signature at
// the API boundary (sketching is unchanged); the backend decides how many
// bits of each slot survive into the index's contiguous store and how slot
// agreement counts convert back into Jaccard/containment estimates.
//
//   - Minwise64 stores the full 61-bit hash values in 8 bytes per slot — the
//     paper's configuration. Bit-identical to the pre-backend behavior,
//     including on the wire.
//   - Minwise16/32 are b-bit minwise backends (Li & König, WWW 2010): each
//     slot keeps only its low b ∈ {16, 32} bits, shrinking the store to
//     b/64 of the full size. Truncated slots collide by chance with
//     probability 2⁻ᵇ even across unrelated domains, so the Jaccard
//     estimator unbiases the raw agreement fraction:
//     Ĵ = (p̂ − 2⁻ᵇ) / (1 − 2⁻ᵇ).
//   - The leading value of every band (the slot a probe looks up first, and
//     the value the lead filters hold) keeps at least 32 bits: Minwise16
//     stores each band lead's bits 16–31 beside its 16-bit slots, 2 bytes
//     per band (576 B per domain at m = 256, 32 bands, against minwise32's
//     1 024). A 16-bit lead would admit an unrelated domain into an r = 1
//     band with probability 2⁻¹⁶; at 2⁻³² Minwise16 returns minwise32's
//     candidates. Only the lead needs the width: the other slots of a band
//     refine a lead hit, and the match count scores at the store width.
//
// Every backend can back an Index store; the k-minimum-values sketch that
// internal/expt scores by brute force (expt.KMV) supports no banding and
// is not one. The zero value, SketchUnset, is Minwise16 for a new index and
// the backend the file carries on a load.
type SketchBackend uint8

const (
	// SketchUnset names no backend; Options.WithDefaults or a file sets one.
	SketchUnset SketchBackend = iota
	// Minwise64 is the full-width minwise backend.
	Minwise64
	_ // tag 1, 8-bit slots: retired as unusable (doc.go), its files are refused
	_ // tag 2, 16-bit slots with 16-bit band leads: retired for Minwise16, its files are refused
	// Minwise32 stores the low 32 bits of each minhash slot.
	Minwise32
	// Minwise16 stores the low 16 bits of each minhash slot, and the low 32
	// of each band's leading slot.
	Minwise16

	numSketchBackends
)

// sketchNames is indexed by SketchBackend; these are the -sketch flag values
// and the names reported by /stats and the experiment tables.
var sketchNames = [numSketchBackends]string{"unset", "minwise64", "", "", "minwise32", "minwise16"}

// Valid reports whether sb is a defined backend (SketchUnset is not one).
func (sb SketchBackend) Valid() bool { return sb == Minwise64 || sb == Minwise16 || sb == Minwise32 }

// WidthBytes returns the stored bytes per signature slot: the lshforest
// store element width the backend builds on.
func (sb SketchBackend) WidthBytes() int {
	switch sb {
	case Minwise16:
		return 2
	case Minwise32:
		return 4
	}
	return 8
}

// Bits returns the stored bits per slot, b in the b-bit minwise papers.
func (sb SketchBackend) Bits() int { return 8 * sb.WidthBytes() }

// Mask returns the bitmask a stored slot value is truncated with. Query-side
// comparisons against a truncated store must mask their values identically.
func (sb SketchBackend) Mask() uint64 { return ^uint64(0) >> (64 - sb.Bits()) }

// LeadBytes returns the bytes a band's leading value keeps: the store width,
// and never fewer than 4 (lshforest.LeadWidth). The sorted lead columns, their
// fences, the lead filters and the buffer's lead columns hold values this wide.
func (sb SketchBackend) LeadBytes() int { return lshforest.LeadWidth(sb.WidthBytes()) }

// LeadMask returns the bitmask a band's leading value is truncated with. Every
// lead filter holds its values masked so, and the query side masks its own
// leading values identically before it asks one.
func (sb SketchBackend) LeadMask() uint64 { return ^uint64(0) >> (64 - 8*sb.LeadBytes()) }

// String returns the canonical backend name (also the -sketch flag value).
func (sb SketchBackend) String() string {
	if sb >= numSketchBackends || sketchNames[sb] == "" {
		return fmt.Sprintf("sketch(%d)", uint8(sb))
	}
	return sketchNames[sb]
}

// ParseSketchBackend resolves a backend name as accepted by the -sketch
// flag: minwise64, minwise16 or minwise32.
func ParseSketchBackend(s string) (SketchBackend, error) {
	for sb := Minwise64; sb < numSketchBackends; sb++ {
		if sb.Valid() && s == sketchNames[sb] {
			return sb, nil
		}
	}
	return 0, fmt.Errorf("core: unknown sketch backend %q (want one of minwise64, minwise16, minwise32)", s)
}

// SketchBackendFromTag maps a wire-format backend tag (snapshot manifest v4,
// LSEG v2, LSE2 index encodings) back to a backend: tags 0, 3 and 4 are
// Minwise64, 32 and 16, their enum values before SketchUnset. Unknown tags
// are rejected so newer formats fail loudly on older binaries, and so are
// the retired tags 1 (8-bit slots) and 2 (16-bit slots with 16-bit band
// leads), whose truncated values cannot be widened back.
func SketchBackendFromTag(tag uint32) (SketchBackend, bool) {
	sb := SketchBackend(tag + 1)
	return sb, tag < uint32(numSketchBackends-1) && sb.Valid()
}

// Tag returns the backend's wire-format tag; the backend must be Valid.
func (sb SketchBackend) Tag() uint32 { return uint32(sb) - 1 }

// JaccardFromMatch converts an agreement count over m compared slots into a
// Jaccard estimate. For Minwise64 the agreement fraction is the estimate
// (Broder's identity; float-identical to minhash.Signature.Jaccard). For a
// b-bit backend a disagreeing slot pair still collides in its surviving b
// bits with probability 2⁻ᵇ, so the expected agreement fraction is
// p = J + (1−J)·2⁻ᵇ; inverting gives Ĵ = (p̂ − 2⁻ᵇ)/(1 − 2⁻ᵇ), clamped to
// [0, 1] (small samples can put p̂ below the chance floor).
func (sb SketchBackend) JaccardFromMatch(eq, m int) float64 {
	if m <= 0 {
		return 0
	}
	p := float64(eq) / float64(m)
	if sb == Minwise64 {
		return p
	}
	r := 1 / float64(uint64(1)<<sb.Bits())
	j := (p - r) / (1 - r)
	if j < 0 {
		return 0
	}
	return j
}

// ContainmentFromMatch converts an agreement count over m compared slots
// into a containment estimate t(Q, X) = |Q∩X|/|Q| for a query of cardinality
// q against a stored domain of cardinality x, through the backend's Jaccard
// estimate and the inclusion-exclusion identity (paper Eq. 6). For Minwise64
// the result is float-identical to minhash.Signature.Containment on the same
// agreement count.
func (sb SketchBackend) ContainmentFromMatch(eq, m int, q, x float64) float64 {
	j := sb.JaccardFromMatch(eq, m)
	if q <= 0 {
		return 0
	}
	t := (x/q + 1) * j / (1 + j)
	if t > 1 {
		t = 1
	}
	return t
}
