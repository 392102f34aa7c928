//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package segfile

import "unsafe"

// On little-endian hosts the on-disk little-endian arrays can be viewed in
// place: a segment file's signature store and tree columns become typed
// slice headers over the mapped bytes, so opening a segment touches no
// data pages. Misaligned input (possible when a caller embeds an image at an
// arbitrary offset of a larger buffer) falls back to the decoding copy —
// semantically identical, just not zero-copy.

// View views b, a little-endian array of E whose length is a multiple of
// E's size, as []E. The result aliases b when zero-copy applies; callers
// must treat it as read-only and must not outlive b's backing.
func View[E Elem](b []byte) []E {
	if len(b) == 0 {
		return nil
	}
	w := unsafe.Sizeof(E(0))
	if uintptr(unsafe.Pointer(&b[0]))%w != 0 {
		return decodeView[E](b)
	}
	return unsafe.Slice((*E)(unsafe.Pointer(&b[0])), uintptr(len(b))/w)
}
