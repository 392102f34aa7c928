//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package segfile

// Big-endian hosts cannot view the little-endian on-disk arrays in place, so
// every typed view decodes into a fresh heap slice. Correct but not
// zero-copy; the out-of-core path then behaves like an eager load.

// View decodes b, a little-endian array of E, into a fresh []E.
func View[E Elem](b []byte) []E { return decodeView[E](b) }
