package lshensemble_test

import (
	"testing"
	"time"

	"lshensemble"
	"lshensemble/internal/datagen"
	"lshensemble/internal/minhash"
	"lshensemble/internal/obs"
)

// histObserver is the daemon's observer shape: one histogram observation
// per query through the public hook.
type histObserver struct {
	h *obs.Histogram
}

func (o histObserver) ObserveQuery(_ lshensemble.LiveQueryKind, d time.Duration) {
	o.h.Observe(d.Seconds())
}

// TestInstrumentedQueryZeroAllocs pins the observability acceptance bar:
// the steady-state query path with the metrics observer installed — the
// exact configuration a serving daemon runs — still allocates nothing, with
// the result cache answering and with it off.
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

		hist := obs.NewHistogram(obs.DefBuckets)
		idx.SetObserver(histObserver{h: hist})
		wantNoQueryAllocs(t, idx, recs, resultCache)
		if hist.Count() == 0 {
			t.Fatal("observer histogram recorded nothing — the hook is not installed")
		}
	}
}
