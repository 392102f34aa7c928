package segfile

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestWriteAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	want := []byte("first contents")
	if err := WriteAtomic(path, want); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}

	// Replacing an existing file must leave exactly the new contents.
	want = []byte("second, longer contents entirely")
	if err := WriteAtomic(path, want); err != nil {
		t.Fatalf("WriteAtomic replace: %v", err)
	}
	if got, _ = os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatalf("after replace read %q, want %q", got, want)
	}

	// No temp files may survive a successful write.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "blob" {
			t.Fatalf("leftover file %q after WriteAtomic", e.Name())
		}
	}
}

func TestOpenHeapAndMappedAgree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	data := make([]byte, 4096+123) // deliberately not page-sized
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := WriteAtomic(path, data); err != nil {
		t.Fatal(err)
	}

	heap, err := OpenHeap(path)
	if err != nil {
		t.Fatalf("OpenHeap: %v", err)
	}
	defer heap.Close()
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer mapped.Close()

	if heap.Mapped() {
		t.Fatal("OpenHeap returned a mapped backing")
	}
	if !bytes.Equal(heap.Bytes(), data) {
		t.Fatal("heap bytes differ from file contents")
	}
	if !bytes.Equal(mapped.Bytes(), data) {
		t.Fatal("mapped bytes differ from file contents")
	}
	if heap.Len() != len(data) || mapped.Len() != len(data) {
		t.Fatalf("Len() = %d / %d, want %d", heap.Len(), mapped.Len(), len(data))
	}
}

func TestCloseIdempotentAndNilSafe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	if err := WriteAtomic(path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func(string) (*Backing, error){OpenHeap, OpenMapped} {
		b, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
	var nilBack *Backing
	if err := nilBack.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestEmptyFileMaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := WriteAtomic(path, nil); err != nil {
		t.Fatal(err)
	}
	b, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped on empty file: %v", err)
	}
	if b.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", b.Len())
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCastsMatchPortableDecode checks the zero-copy casts against the
// explicit little-endian decode at every alignment offset, so the
// aligned fast path and the misaligned copy fallback both get exercised
// regardless of where the allocator puts the buffer.
func TestCastsMatchPortableDecode(t *testing.T) {
	raw := make([]byte, 8*17+8)
	for i := range raw {
		raw[i] = byte(i*97 + 13)
	}
	for off := 0; off < 8; off++ {
		b := raw[off : off+8*16]
		want64 := decodeView[uint64](b)
		got64 := View[uint64](b)
		if len(got64) != len(want64) {
			t.Fatalf("off %d: View[uint64] len %d, want %d", off, len(got64), len(want64))
		}
		for i := range want64 {
			if got64[i] != want64[i] {
				t.Fatalf("off %d: View[uint64][%d] = %#x, want %#x", off, i, got64[i], want64[i])
			}
		}
		b32 := raw[off : off+4*16]
		want32 := decodeView[uint32](b32)
		got32 := View[uint32](b32)
		for i := range want32 {
			if got32[i] != want32[i] {
				t.Fatalf("off %d: View[uint32][%d] = %#x, want %#x", off, i, got32[i], want32[i])
			}
		}
	}
	if View[uint64](nil) != nil || View[uint32](nil) != nil {
		t.Fatal("casts of empty input must be nil")
	}
}

// TestCastsSeeWrittenValues round-trips typed values through the on-disk
// encoding: put with binary.LittleEndian, read back through the casts.
func TestCastsSeeWrittenValues(t *testing.T) {
	vals := []uint64{0, 1, 1<<63 - 1, ^uint64(0), 0xdeadbeefcafebabe}
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	got := View[uint64](b)
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("View[uint64][%d] = %#x, want %#x", i, got[i], v)
		}
	}
}

// TestReader walks the Reader's contract: reads in order, a short read that
// is sticky and leaves every later read at its zero value, counts held
// against the bytes left, and strings that do not alias the input.
func TestReader(t *testing.T) {
	le := binary.LittleEndian
	frame := le.AppendUint32(nil, 7)
	frame = le.AppendUint64(frame, 1<<40)
	frame = le.AppendUint32(frame, 3)
	frame = append(frame, "abc"...)
	sixteen := make([]byte, 16)
	for _, tc := range []struct {
		name  string
		in    []byte
		read  func(r *Reader) any
		want  any
		short bool
		left  int
	}{
		{"u32", frame, func(r *Reader) any { return r.U32() }, uint32(7), false, len(frame) - 4},
		{"u32 then u64", frame, func(r *Reader) any { r.U32(); return r.U64() }, uint64(1 << 40), false, 7},
		{"string", frame[12:], func(r *Reader) any { return r.String() }, "abc", false, 0},
		{"u64 past the end", frame[:7], func(r *Reader) any { return r.U64() }, uint64(0), true, 0},
		{"short is sticky", frame[:6], func(r *Reader) any { r.U64(); return r.U32() }, uint32(0), true, 0},
		{"bytes after short", frame[:6], func(r *Reader) any { r.U64(); return r.Bytes(0) }, []byte(nil), true, 0},
		{"string past the end", frame[12:14], func(r *Reader) any { return r.String() }, "", true, 0},
		{"count of 2 over 16 bytes", append(le.AppendUint32(nil, 2), sixteen...),
			func(r *Reader) any { return r.Count(8) }, 2, false, 16},
		{"count of 2^32-1 over 16 bytes", append(le.AppendUint32(nil, 0xFFFFFFFF), sixteen...),
			func(r *Reader) any { return r.Count(8) }, 0, true, 0},
		{"count of 3 over 16 bytes", append(le.AppendUint32(nil, 3), sixteen...),
			func(r *Reader) any { return r.Count(8) }, 0, true, 0},
		{"negative length", frame, func(r *Reader) any { return r.Bytes(-1) }, []byte(nil), true, 0},
		{"length past the end", frame, func(r *Reader) any { return r.Bytes(len(frame) + 1) }, []byte(nil), true, 0},
		{"whole input", frame, func(r *Reader) any { return len(r.Bytes(len(frame))) }, len(frame), false, 0},
	} {
		r := &Reader{B: tc.in}
		if got := tc.read(r); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: read %v (%T), want %v (%T)", tc.name, got, got, tc.want, tc.want)
		}
		if r.Short != tc.short || len(r.B) != tc.left {
			t.Errorf("%s: Short %v with %d bytes left, want %v with %d", tc.name, r.Short, len(r.B), tc.short, tc.left)
		}
	}

	buf := []byte{1, 0, 0, 0, 'x'}
	r := &Reader{B: buf}
	s := r.String()
	buf[4] = 'y'
	if s != "x" {
		t.Fatalf("String aliases its input: %q after the input changed", s)
	}
}
