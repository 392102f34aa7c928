// Package domain holds the nouns the index and the wire share: a domain's
// record, one query of a batch, a ranked answer and its order, and the bound
// on a signature's length. It imports only minhash, so the router uses the
// types the shards index and answer with without linking the index.
package domain

import (
	"cmp"
	"strings"

	"lshensemble/internal/minhash"
)

// Record is one indexable domain: a caller-chosen key, the exact domain
// cardinality, and the MinHash signature of the domain's values.
type Record struct {
	Key  string
	Size int
	Sig  minhash.Signature
}

// MaxNumHash bounds the signature length m. A hasher holds 16 bytes per hash
// function, and m can come from a flag, a snapshot header or a shard's
// /stats, so no larger m may reach one.
const MaxNumHash = 1 << 16

// BatchQuery is one containment query of a batch: the query signature, the
// (exact or estimated) query cardinality |Q|, and the containment threshold
// t*.
type BatchQuery struct {
	Sig       minhash.Signature
	Size      int
	Threshold float64
}

// TopKResult is one ranked answer of a top-k query.
type TopKResult struct {
	Key string
	// EstContainment is the containment score estimated from the MinHash
	// signatures (paper Eq. 6 applied to the Jaccard estimate). It ranks
	// candidates; callers needing exact scores should verify against the
	// raw domains.
	EstContainment float64
}

// CompareTopK is THE ranking order of top-k answers, for slices.SortFunc:
// best estimated containment first, ties broken by key ascending. A segment,
// the live index's merge and the router's merge all rank with it, so a key's
// position never depends on which layer ranked last.
func CompareTopK(a, b TopKResult) int {
	if c := cmp.Compare(b.EstContainment, a.EstContainment); c != 0 {
		return c
	}
	return strings.Compare(a.Key, b.Key)
}
