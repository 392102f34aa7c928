// Package segfile provides the byte-level plumbing of the index's persisted
// formats: a read-only Backing over a heap copy or a memory-mapped view of
// one segment file, zero-copy typed views of little-endian on-disk arrays,
// crash-safe atomic file writes, and Reader, the bounded reader through which
// every decoder (snapshot, segment META, index, forest, Bloom, answer frame)
// reads untrusted bytes.
//
// The flat storage layout of internal/lshforest (one contiguous []uint64
// signature store, flat per-tree order and leading-value columns) was chosen
// so binary-search probes work unchanged on a mapped file; this package is
// the piece that turns mapped bytes back into those slices without copying.
// On Linux, OpenMapped uses mmap(2) (via the stdlib syscall package — the
// repo carries no dependencies); everywhere else it degrades to a heap read
// with identical semantics, only the paging behavior differs.
package segfile

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"unsafe"
)

// Backing is a read-only byte region holding one file's contents. Exactly
// one of two forms: a private heap buffer (OpenHeap, FromBytes, or the
// non-Linux OpenMapped fallback) or a memory-mapped view of the file
// (OpenMapped on Linux). Callers must not mutate the bytes, and must not
// touch them after Close — for a mapped backing that is a hard rule, not a
// convention: the pages are gone.
type Backing struct {
	data   []byte
	mapped bool
	closed atomic.Bool
}

// FromBytes wraps an in-memory buffer as a Backing (no copy). Close is a
// no-op beyond dropping the reference.
func FromBytes(b []byte) *Backing { return &Backing{data: b} }

// OpenHeap reads the whole file into a private heap buffer.
func OpenHeap(path string) (*Backing, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Backing{data: data}, nil
}

// OpenMapped maps the file read-only when the platform supports it (Linux);
// elsewhere it falls back to OpenHeap. Mapped() reports which form resulted.
func OpenMapped(path string) (*Backing, error) { return openMapped(path) }

// Bytes returns the backing's contents. The slice is valid until Close.
func (b *Backing) Bytes() []byte { return b.data }

// Len returns the content length in bytes.
func (b *Backing) Len() int { return len(b.data) }

// Mapped reports whether the bytes are a memory-mapped view (true only on
// platforms with mmap support).
func (b *Backing) Mapped() bool { return b.mapped }

// Close releases the backing: munmap for mapped regions, a reference drop
// for heap buffers. Idempotent and nil-safe. No reader may hold views of
// Bytes() across Close — internal/live enforces this with snapshot
// reference counting.
func (b *Backing) Close() error {
	if b == nil || !b.closed.CompareAndSwap(false, true) {
		return nil
	}
	data := b.data
	b.data = nil
	if b.mapped {
		return munmap(data)
	}
	return nil
}

// Elem constrains the element types of typed on-disk array views: the hash
// value widths of the pluggable sketch backends (b-bit minwise stores 2 or
// 4 bytes per value, full-width minwise 8).
type Elem interface {
	~uint16 | ~uint32 | ~uint64
}

// decodeView is the portable fallback of View: an explicit little-endian
// decode into a fresh slice (used on big-endian hosts and for misaligned
// input).
func decodeView[E Elem](b []byte) []E {
	w := int(unsafe.Sizeof(E(0)))
	out := make([]E, len(b)/w)
	for i := range out {
		var u uint64
		for k := w - 1; k >= 0; k-- {
			u = u<<8 | uint64(b[i*w+k])
		}
		out[i] = E(u)
	}
	return out
}

// Put writes vals into dst as the little-endian array View reads back and
// returns the bytes written; dst must hold them.
func Put[E Elem](dst []byte, vals []E) int {
	w := int(unsafe.Sizeof(E(0)))
	for i, v := range vals {
		u := uint64(v)
		for k := 0; k < w; k++ {
			dst[i*w+k] = byte(u >> (8 * k))
		}
	}
	return len(vals) * w
}

// WriteAtomic durably replaces path with data: a same-directory temp file
// is written and fsynced, renamed over path, and the directory entry is
// synced. A crash at any point leaves either the complete old file or the
// complete new one — never a torn mix (the crash-safety contract every
// segment-file and snapshot write in this repo relies on).
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".segfile-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	SyncDir(dir)
	return nil
}

// SyncDir fsyncs a directory so completed renames and removes inside it are
// durable. Errors are swallowed: some filesystems and platforms cannot sync
// a directory handle, and the rename itself is still atomic — only the
// durability of the directory entry is best-effort there.
func SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
