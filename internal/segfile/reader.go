package segfile

import "encoding/binary"

// Reader reads a little-endian layout front to back out of untrusted bytes.
// A read the unread bytes cannot satisfy sets Short and drops them, so from
// then on every read returns zero values: a decoder reads its whole layout
// straight through and checks Short once at the end.
type Reader struct {
	B     []byte // the unread bytes
	Short bool   // a read ran past the end of B (sticky)
}

// Bytes returns the next n bytes, a view into B.
func (r *Reader) Bytes(n int) []byte {
	if uint(n) > uint(len(r.B)) {
		r.B, r.Short = nil, true
		return nil
	}
	b := r.B[:n:n]
	r.B = r.B[n:]
	return b
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); !r.Short {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); !r.Short {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// String reads a uint32 length and returns a copy of that many bytes.
func (r *Reader) String() string { return string(r.Bytes(int(r.U32()))) }

// Count reads a uint32 count of items that take at least size bytes each
// and refuses (as a short read) a count the unread bytes cannot hold, so no
// count read from outside sizes an allocation larger than the input.
func (r *Reader) Count(size int) int {
	n := uint64(r.U32())
	if n > uint64(len(r.B))/uint64(max(size, 1)) {
		r.B, r.Short = nil, true
		return 0
	}
	return int(n)
}
