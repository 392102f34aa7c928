package lshensemble_test

import (
	"context"
	"testing"

	"lshensemble"
	"lshensemble/internal/datagen"
	"lshensemble/internal/minhash"
)

// TestInstrumentedQueryZeroAllocs pins the observability acceptance bar: the
// instrumentation that rides on the library's query path — a planner trace
// attached to the context, which the daemon does for its slow-query log and
// the call frame fills on every return — allocates nothing in steady state,
// with the result cache answering and with it off.
func TestInstrumentedQueryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates and randomizes sync.Pool reuse")
	}
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: 600, Seed: 29})
	h := minhash.NewHasher(128, 29)
	recs := datagen.Records(corpus, h)
	for _, resultCache := range []int{0, -1} {
		idx, err := lshensemble.BuildLive(recs[:400], lshensemble.LiveOptions{
			Options:          lshensemble.Options{NumHash: 128, RMax: 4, NumPartitions: 8},
			ManualCompaction: true,
			ResultCacheSize:  resultCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		for _, r := range recs[400:500] {
			if _, err := idx.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		idx.Flush()
		for _, r := range recs[500:550] {
			if _, err := idx.Add(r); err != nil {
				t.Fatal(err)
			}
		}

		var tr lshensemble.LiveQueryTrace
		wantNoQueryAllocs(t, lshensemble.WithLiveQueryTrace(context.Background(), &tr), idx, recs, resultCache)
		if tr.Segments == 0 || tr.Buffered == 0 {
			t.Fatalf("trace was not filled — the queries ran uninstrumented: %+v", tr)
		}
	}
}
