package lshensemble

import (
	"context"
	"io"

	"lshensemble/internal/core"
	"lshensemble/internal/domain"
	"lshensemble/internal/live"
	"lshensemble/internal/minhash"
	"lshensemble/internal/partition"
)

// Signature is a MinHash sketch of a domain. Signatures are comparable only
// when produced by Hashers constructed with identical (numHash, seed).
type Signature = minhash.Signature

// Hasher is a family of minwise hash permutations. All signatures indexed
// together and all query signatures must come from the same family.
type Hasher = minhash.Hasher

// NewHasher constructs a hash family of numHash permutations (the paper
// uses 256) derived deterministically from seed.
func NewHasher(numHash int, seed uint64) *Hasher {
	return minhash.NewHasher(numHash, seed)
}

// DomainRecord is one indexable domain: a caller-chosen key, the exact
// cardinality of the domain, and its MinHash signature.
type DomainRecord = domain.Record

// Options shapes every sealed segment of a LiveIndex (LiveOptions.Options);
// zero values select the paper's defaults (NumHash 256, RMax 8,
// NumPartitions 16, equi-depth partitioning).
type Options = core.Options

// SketchBackend selects how the flat signature store represents each of the
// NumHash minwise values — the accuracy-vs-bytes knob. Minwise64 is the
// paper's full-width representation; Minwise16/32 store b-bit truncations
// (Li & König) at 1/4–1/2 the bytes, correcting containment estimates for
// the 2⁻ᵇ chance-collision floor. Every band's leading value keeps at least
// 32 bits, so Minwise16 stores each lead's high half besides (576 bytes a
// domain at m = 256) and returns Minwise32's candidates. The zero value is
// Minwise16 for a new index, and the file's own backend on a load.
type SketchBackend = core.SketchBackend

// Sketch backends for Options.Sketch.
const (
	Minwise64 = core.Minwise64
	Minwise16 = core.Minwise16
	Minwise32 = core.Minwise32
)

// ParseSketchBackend resolves a backend name ("minwise64", "minwise16",
// "minwise32") — the vocabulary of the daemon's -sketch flag.
func ParseSketchBackend(name string) (SketchBackend, error) {
	return core.ParseSketchBackend(name)
}

// PartitionerFunc chooses the size intervals of the ensemble.
type PartitionerFunc = core.PartitionerFunc

// Partitioning strategies for Options.Partitioner.
var (
	// EquiDepth gives every partition the same number of domains — the
	// paper's Theorem 2 choice, near-optimal for power-law distributions.
	EquiDepth PartitionerFunc = partition.EquiDepth
	// EquiWidth splits the size range evenly — a poor choice under skew,
	// provided for comparison and drift experiments.
	EquiWidth PartitionerFunc = partition.EquiWidth
	// Minimax directly minimizes the maximum per-partition false-positive
	// bound (Theorem 1), for arbitrary (non-power-law) distributions.
	Minimax PartitionerFunc = partition.Minimax
)

// SketchStrings is a convenience that builds a record from raw string
// values (deduplicated by the hasher's value identity). Hashing and dedup
// run first so the permutation folding can take the batched
// permutation-major path. One domain is sketched on one goroutine: callers
// with many domains parallelise across them. A query the daemon reads off
// the wire takes the same dedup and sketch from the hashes of its values.
func SketchStrings(h *Hasher, key string, values []string) DomainRecord {
	hvs := make([]uint64, len(values))
	for i, v := range values {
		hvs[i] = minhash.HashString(v)
	}
	sig, size := minhash.SketchDistinct(h, hvs)
	return DomainRecord{Key: key, Size: size, Sig: sig}
}

// TopKResult is one ranked answer of LiveIndex.QueryTopK, the top-k search
// formulation complementary to threshold search (paper Section 2).
type TopKResult = domain.TopKResult

// BatchQuery is one containment query of a LiveIndex.QueryBatch batch.
type BatchQuery = domain.BatchQuery

// BatchResults is the destination of the static index's QueryBatchInto.
//
// Deprecated: no public index answers into it; it remains only for the
// benchmark ladder's static-index rung and goes with that rung.
type BatchResults = core.BatchResults

// LiveIndex is a mutable, always-queryable LSH Ensemble: an
// atomically-swapped snapshot of sealed immutable segments, an unsealed
// in-memory buffer of recent Adds, and a tombstone set for deletes, with a
// background compactor folding the buffer into segments and merging small
// segments. Queries are lock-free against Add/Delete/compaction and answer
// from a consistent point-in-time snapshot; full compaction is
// equivalence-preserving (bit-identical to a fresh BuildLive over the
// surviving records). See the internal/live package documentation for the
// model.
type LiveIndex = live.Index

// LiveOptions configures BuildLive: the embedded Options shape every sealed
// segment, SealThreshold sizes seals and size tiers, MaxSegments caps them.
type LiveOptions = live.Options

// LiveStats is the point-in-time shape summary returned by LiveIndex.Stats.
type LiveStats = live.Stats

// LiveQueryTrace captures the planner's per-query decisions — segment
// pruning breakdown, buffer handling, result-cache hit — when attached to
// the query context with WithLiveQueryTrace.
type LiveQueryTrace = live.QueryTrace

// WithLiveQueryTrace returns a context that makes context-taking LiveIndex
// queries fill tr with the planner's decisions for that one query.
func WithLiveQueryTrace(ctx context.Context, tr *LiveQueryTrace) context.Context {
	return live.WithQueryTrace(ctx, tr)
}

// BuildLive constructs a live (mutable, always-queryable) index over the
// records, sealed into one segment — the paper's build-once ensemble — which
// Add and Delete then change; records may be empty to start from nothing.
// Unless opts.ManualCompaction is set, a background compactor goroutine is
// started — call Close to release it.
func BuildLive(records []DomainRecord, opts LiveOptions) (*LiveIndex, error) {
	return live.Build(records, opts)
}

// SaveLive writes the live index's point-in-time snapshot encoding to w.
// It is safe to call while writers and the compactor run.
func SaveLive(w io.Writer, idx *LiveIndex) error {
	return idx.Save(w)
}

// LoadLive reads a live index previously written with SaveLive — the warm
// restart path. Non-zero opts.NumHash/opts.RMax must match the saved shape.
func LoadLive(r io.Reader, opts LiveOptions) (*LiveIndex, error) {
	return live.Load(r, opts)
}
