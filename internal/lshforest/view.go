package lshforest

import "fmt"

// This file is the out-of-core seam of the forest: accessors that expose the
// flat storage layout (contiguous signature store, per-tree sorted orders and
// leading-value columns) so internal/live can persist a built forest into a
// segment file, and FromViewBytes, which reassembles a built
// forest directly over such persisted arrays — possibly zero-copy views of a
// memory-mapped file (internal/segfile). Nothing here reads the store
// contents, so opening a mapped segment faults no signature pages.

// IDs returns the caller-assigned id of every entry in slot order as a
// read-only view (full-slice expression: appends cannot clobber the store).
func (f *Forest) IDs() []uint32 { return f.ids[:len(f.ids):len(f.ids)] }

// StoreLenBytes returns the serialized byte length of the signature store:
// Len() * RowLen(NumHash(), RMax(), Width()) * Width(), the lead high halves
// of a width-2 store included. This is the number /stats and the segment
// files report as signature bytes — the quantity the compact sketch
// backends shrink.
func (f *Forest) StoreLenBytes() int { return f.st.valueCount() * f.width }

// FenceBytes returns the byte size of the tree columns' in-memory fences,
// sized from the shape: a view reports it before its first probe builds them.
func (f *Forest) FenceBytes() int {
	lw := f.LeadWidth()
	s := fenceLine / lw
	return f.bMax * ((len(f.ids) + s - 1) / s) * lw
}

// WriteStoreLE serializes the whole signature store, little-endian at
// native width, into dst; len(dst) must be exactly StoreLenBytes(). For an
// 8-byte store the bytes are identical to the pre-width-generalization
// []uint64 dump, keeping segment files golden-compatible.
func (f *Forest) WriteStoreLE(dst []byte) {
	if len(dst) != f.StoreLenBytes() {
		panic(fmt.Sprintf("lshforest: WriteStoreLE into %d bytes, store is %d", len(dst), f.StoreLenBytes()))
	}
	f.st.writeStoreLE(dst)
}

// WriteTreeKeysLE serializes tree t's sorted leading-value column,
// little-endian at the lead width, into dst; len(dst) must be exactly
// Len() * LeadWidth().
func (f *Forest) WriteTreeKeysLE(t int, dst []byte) {
	if len(dst) != len(f.ids)*f.LeadWidth() {
		panic(fmt.Sprintf("lshforest: WriteTreeKeysLE into %d bytes, column is %d", len(dst), len(f.ids)*f.LeadWidth()))
	}
	f.st.writeTreeKeysLE(t, dst)
}

// Tree returns tree t's sorted slot order as a read-only view (nil for an
// empty forest).
func (f *Forest) Tree(t int) []uint32 {
	if t < 0 || t >= f.bMax {
		panic(fmt.Sprintf("lshforest: tree %d out of range [0, %d)", t, f.bMax))
	}
	if len(f.ids) == 0 {
		return nil
	}
	o := f.trees[t]
	return o[:len(o):len(o)]
}

// FromViewBytes reassembles a built forest over externally owned storage:
// the signature store (RowLen values per entry at the element width: 2, 4 or
// 8 bytes) and the per-tree leading-value columns (at LeadWidth) arrive as
// little-endian byte regions — usually sections of a mapped segment file —
// and are cast to typed views without copying on little-endian hosts. They
// must satisfy what Build would have established: one order and one column
// per tree, each of len(ids) entries, column[i] the lead of tree t of slot
// order[i], sorted by the tree's full hash vector. Only lengths are validated — verifying contents would
// fault every lazily mapped page; a checksummed loader (internal/live's
// segment files) guards the bytes instead. The forest is immutable like any
// other, so nothing ever writes to the (possibly read-only mapped) regions.
func FromViewBytes(numHash, rMax, width int, ids []uint32, store []byte, trees [][]uint32, keys [][]byte) (*Forest, error) {
	f := newForest(numHash, rMax, width)
	row, lw := RowLen(numHash, rMax, width), f.LeadWidth()
	if len(store) != len(ids)*row*width {
		return nil, fmt.Errorf("lshforest: view store has %d bytes, want %d ids × %d values × width %d",
			len(store), len(ids), row, width)
	}
	if len(ids) > 0 {
		if len(trees) != f.bMax || len(keys) != f.bMax {
			return nil, fmt.Errorf("lshforest: view has %d orders / %d columns, want %d trees", len(trees), len(keys), f.bMax)
		}
		for t := 0; t < f.bMax; t++ {
			if len(trees[t]) != len(ids) || len(keys[t]) != len(ids)*lw {
				return nil, fmt.Errorf("lshforest: view tree %d has %d entries / %d column bytes, want %d / %d",
					t, len(trees[t]), len(keys[t]), len(ids), len(ids)*lw)
			}
		}
		f.trees = trees
		f.st.viewFrom(store, keys)
	}
	f.ids = ids
	return f, nil
}
