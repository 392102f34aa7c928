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

// FromParts reassembles an Index from previously built partitions. keys and
// sizes are indexed by record id; every id in [0, len(keys)) must appear in
// exactly one forest, each forest must have the matching signature shape,
// sizes must be positive, and the bounds must hold as Decode requires them
// (ordered, non-overlapping, every size inside its partition's). The forests
// may be read-only views over mapped segment files: nothing here reads
// signature store contents (the per-id signature views are built by slicing
// the stores, and slicing faults no data pages), so a lazily mapped segment
// stays on disk until the first probe.
func FromParts(opts Options, keys []string, sizes []int, views []PartView) (*Index, error) {
	opts = opts.WithDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, ErrEmpty
	}
	if len(sizes) != len(keys) {
		return nil, fmt.Errorf("core: %d sizes for %d keys", len(sizes), len(keys))
	}
	if len(views) == 0 {
		return nil, fmt.Errorf("core: no partitions")
	}
	for i, sz := range sizes {
		if sz <= 0 {
			return nil, fmt.Errorf("core: record %q has non-positive size %d", keys[i], sz)
		}
	}
	x := &Index{
		opts:  opts,
		keys:  keys,
		sizes: sizes,
		parts: make([]part, len(views)),
	}
	total := 0
	for i, v := range views {
		f := v.Forest
		if f == nil {
			return nil, fmt.Errorf("core: partition %d has no forest", i)
		}
		if f.NumHash() != opts.NumHash || f.RMax() != opts.RMax {
			return nil, fmt.Errorf("core: partition %d forest shape (%d,%d) != options (%d,%d)",
				i, f.NumHash(), f.RMax(), opts.NumHash, opts.RMax)
		}
		if f.Width() != opts.Sketch.WidthBytes() {
			return nil, fmt.Errorf("core: partition %d forest width %d != sketch backend %s width %d",
				i, f.Width(), opts.Sketch, opts.Sketch.WidthBytes())
		}
		x.parts[i] = part{lower: v.Lower, upper: v.Upper, forest: f}
		total += f.Len()
	}
	if total != len(keys) {
		return nil, fmt.Errorf("core: partitions hold %d entries for %d keys", total, len(keys))
	}
	if err := x.rebuildLocs(); err != nil {
		return nil, fmt.Errorf("core: partition entry ids exceed the key space, repeat or are missing: %w", err)
	}
	if err := x.checkBounds(); err != nil {
		return nil, err
	}
	x.opt = opts.table() // last, like Decode: rejected input registers no grid
	return x, nil
}
