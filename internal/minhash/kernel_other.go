//go:build !amd64

package minhash

import "lshensemble/internal/segfile"

// haveAVX512 is false off amd64: the scalar kernel runs every slot.
const haveAVX512 = false

func pushVector(sig, a, b, hvs []uint64) int { return 0 }

func matchVector[E segfile.Elem](s []E, q []uint64) (eq, n int) { return 0, 0 }
