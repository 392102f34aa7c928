package main

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// lapHash fingerprints the requests of a lap for the determinism test: the op
// sequence and the keys of the domains the ops name.
func lapHash(ops []op, in *queryInputs) uint64 {
	h := fnv.New64a()
	var b [5]byte
	for _, o := range ops {
		b[0] = byte(o.kind)
		binary.LittleEndian.PutUint32(b[1:], uint32(o.arg))
		h.Write(b[:])
	}
	for _, k := range in.keys {
		h.Write([]byte(k))
	}
	return h.Sum64()
}

// TestSameSeedSameInputs: the workload seed decides the inputs and nothing
// else does. The same seed yields a byte-identical lap of requests and
// identical counts and ratios (recall, precision, bytes per domain, candidates per
// query); another seed yields another lap. The program under test has no
// seed parameter to receive: its hash family is the constant hashSeed.
func TestSameSeedSameInputs(t *testing.T) {
	outDir = t.TempDir()
	streams := make(map[uint64][]uint64)
	for _, w := range workloads {
		for _, seed := range []uint64{1, 1, 2} {
			dir, err := scratchDir(w.name, int(seed))
			if err != nil {
				t.Fatal(err)
			}
			fx, err := w.setup(quickScale, seed, dir)
			if err != nil {
				t.Fatal(err)
			}
			streams[seed] = append(streams[seed], lapHash(fx.lap, fx.in))
			fx.close()
		}
		h := streams[1]
		if n := len(h); h[n-1] != h[n-2] {
			t.Errorf("%s: seed 1 generated two different laps (%x, %x)", w.name, h[n-2], h[n-1])
		}
		if streams[1][len(streams[1])-1] == streams[2][len(streams[2])-1] {
			t.Errorf("%s: seeds 1 and 2 generated the same lap", w.name)
		}
	}

	w, _ := workloadByName("lib_query")
	type fingerprint struct{ recall, precision, bytesPerDomain, candidates float64 }
	measure := func(seed uint64) fingerprint {
		e2e, err := runEndToEnd(w, quickScale, seed, quickSeconds)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runTraced(w, quickScale, seed)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint{e2e.values["recall"], e2e.values["precision"], e2e.values["bytes_per_domain"], traced.values["core.candidates_per_query"]}
	}
	a, b := measure(3), measure(3)
	if a != b {
		t.Errorf("seed 3 measured %+v, then %+v: counts and ratios must repeat exactly", a, b)
	}
	if a.recall <= 0 || a.bytesPerDomain <= 0 || a.candidates <= 0 {
		t.Errorf("fingerprint %+v has an unmeasured field", a)
	}
	traceRuns = nil
}
