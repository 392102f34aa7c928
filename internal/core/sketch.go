package core

import "fmt"

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
//     Ĵ = (p̂ − 2⁻ᵇ) / (1 − 2⁻ᵇ). LSH probing is unchanged (band collision
//     probability only rises, so partition probes lose no true positives
//     relative to Minwise64 — they admit more false candidates instead).
//
// Every backend can back an Index store; the k-minimum-values sketch that
// internal/expt scores by brute force (expt.KMV) supports no banding and
// is not one. The zero value, SketchUnset, is Minwise32 for a new index and
// the backend the file carries on a load.
type SketchBackend uint8

const (
	// SketchUnset names no backend; Options.WithDefaults or a file sets one.
	SketchUnset SketchBackend = iota
	// Minwise64 is the full-width minwise backend.
	Minwise64
	_ // tag 1, 8-bit slots: retired as unusable (doc.go), its files are refused
	// Minwise16 stores the low 16 bits of each minhash slot.
	Minwise16
	// Minwise32 stores the low 32 bits of each minhash slot.
	Minwise32

	numSketchBackends
)

// sketchNames is indexed by SketchBackend; these are the -sketch flag values
// and the names reported by /stats and the experiment tables.
var sketchNames = [numSketchBackends]string{"unset", "minwise64", "", "minwise16", "minwise32"}

// Valid reports whether sb is a defined backend (SketchUnset is not one).
func (sb SketchBackend) Valid() bool { return sb == Minwise64 || sb == Minwise16 || sb == Minwise32 }

// WidthBytes returns the stored bytes per signature slot: the lshforest
// store element width the backend builds on.
func (sb SketchBackend) WidthBytes() int {
	switch sb {
	case Minwise16, Minwise32: // consecutive: 2 and 4 bytes
		return 2 << (sb - Minwise16)
	}
	return 8
}

// Bits returns the stored bits per slot, b in the b-bit minwise papers.
func (sb SketchBackend) Bits() int { return 8 * sb.WidthBytes() }

// Mask returns the bitmask a stored slot value is truncated with. Query-side
// comparisons against a truncated store must mask their values identically.
func (sb SketchBackend) Mask() uint64 { return ^uint64(0) >> (64 - sb.Bits()) }

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
// LSEG v2, LSE2 index encodings) back to a backend: tags 0, 2 and 3 are
// Minwise64, 16 and 32, their enum values before SketchUnset. Unknown tags
// are rejected so newer formats fail loudly on older binaries, and so is the
// retired tag 1, whose 8-bit store cannot be widened back.
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
