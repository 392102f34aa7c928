package core

import (
	"fmt"

	"lshensemble/internal/lshforest"
)

// This file is the out-of-core seam of the ensemble: EachPart exposes the
// built per-partition state so a segment-file writer (internal/live) can
// persist it, and FromParts reassembles a queryable Index from persisted
// partitions — typically lshforest views over a memory-mapped segment file.

// PartView is one partition of an index in the form EachPart yields and
// FromParts consumes: the partition's upper size bound interval and its
// forest.
type PartView struct {
	Lower, Upper int
	Forest       *lshforest.Forest
}

// EachPart invokes fn for every partition in order with its size bounds and
// forest. The forests are the index's own — callers must treat them as
// read-only.
func (x *Index) EachPart(fn func(pi int, pv PartView)) {
	for i := range x.parts {
		fn(i, PartView{Lower: x.parts[i].lower, Upper: x.parts[i].upper, Forest: x.parts[i].forest})
	}
}

// FromParts is the index's constructor from persisted parts, and their one
// validator: Decode hands it what it parsed from bytes, internal/live what it
// views in a segment file. keys and sizes are indexed by record id. It
// refuses invalid options, an empty index, a size that is not positive, a
// forest of another shape or width than the options, an id out of range,
// repeated or missing, and bounds Build could not have produced; every
// refusal wraps ErrCorrupt. The forests may be read-only views over mapped
// segment files: nothing here reads signature store contents, so a lazily
// mapped segment stays on disk until the first probe.
func FromParts(opts Options, keys []string, sizes []int, views []PartView) (*Index, error) {
	opts = opts.WithDefaults()
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrCorrupt)
	}
	if len(keys) == 0 || len(views) == 0 {
		return nil, fmt.Errorf("core: %d keys in %d partitions: %w", len(keys), len(views), ErrCorrupt)
	}
	if len(sizes) != len(keys) {
		return nil, fmt.Errorf("core: %d sizes for %d keys: %w", len(sizes), len(keys), ErrCorrupt)
	}
	for i, sz := range sizes {
		if sz <= 0 {
			return nil, fmt.Errorf("core: record %q has non-positive size %d: %w", keys[i], sz, ErrCorrupt)
		}
	}
	x := &Index{
		opts:  opts,
		keys:  keys,
		sizes: sizes,
		parts: make([]part, len(views)),
	}
	for i, v := range views {
		f := v.Forest
		if f == nil {
			return nil, fmt.Errorf("core: partition %d has no forest: %w", i, ErrCorrupt)
		}
		if f.NumHash() != opts.NumHash || f.RMax() != opts.RMax {
			// A forest disagreeing with the options would panic at query
			// time (tuned (b, r) out of its range) and yield wrong-length
			// signatures.
			return nil, fmt.Errorf("core: partition %d forest shape (%d, %d) != options (%d, %d): %w",
				i, f.NumHash(), f.RMax(), opts.NumHash, opts.RMax, ErrCorrupt)
		}
		if f.Width() != opts.Sketch.WidthBytes() {
			return nil, fmt.Errorf("core: partition %d forest width %d != sketch backend %s width %d: %w",
				i, f.Width(), opts.Sketch, opts.Sketch.WidthBytes(), ErrCorrupt)
		}
		x.parts[i] = part{lower: v.Lower, upper: v.Upper, forest: f}
	}
	// The query path indexes its visited array by id, so every id in
	// [0, len(keys)) must live in exactly one partition.
	if err := x.rebuildLocs(); err != nil {
		return nil, err
	}
	if err := x.checkBounds(); err != nil {
		return nil, err
	}
	x.opt = opts.table() // last: rejected input registers no grid
	return x, nil
}
