// Dynamic-data demo (paper Section 6.2) on the live index: the corpus
// churns — drifted batches stream in through Add, stale domains leave
// through Delete — while the index stays queryable the whole time. The
// background compactor seals the ingest buffer into segments and merges
// them as they accumulate; nothing ever stops the world to rebuild.
// Partition balance still drifts (each sealed segment re-partitions only its
// own slice), and a full Compact restores equi-depth balance over the
// surviving corpus.
//
//	go run ./examples/dynamic [-n 2000] [-batches 4]
package main

import (
	"flag"
	"fmt"
	"log"

	"lshensemble"
	"lshensemble/internal/datagen"
	"lshensemble/internal/eval"
	"lshensemble/internal/exact"
	"lshensemble/internal/minhash"
)

func measure(idx *lshensemble.LiveIndex, corpus *datagen.Corpus,
	records []lshensemble.DomainRecord, nq int) (prec, rec float64) {
	engine := exact.Build(datagen.ExactDomains(corpus))
	queries := datagen.SampleQueries(corpus, nq, 11)
	var avg eval.Averager
	for _, qi := range queries {
		truth := engine.Truth(corpus.Domains[qi].Values, 0.5)
		res := idx.Query(records[qi].Sig, records[qi].Size, 0.5)
		p, r, empty := eval.PR(res, truth)
		avg.Add(p, r, empty)
	}
	return avg.Precision(), avg.Recall()
}

func describe(st lshensemble.LiveStats) string {
	return fmt.Sprintf("%d domains in %d segments (+%d buffered, %d tombstones, %d seals/%d merges)",
		st.Domains, len(st.Segments), st.Buffered, st.Tombstones, st.Seals, st.Merges)
}

func main() {
	n := flag.Int("n", 2000, "initial corpus size")
	batches := flag.Int("batches", 4, "number of drifted insert batches")
	flag.Parse()

	hasher := minhash.NewHasher(256, 11)
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: *n, Seed: 11})
	records := datagen.Records(corpus, hasher)

	idx, err := lshensemble.BuildLive(records, lshensemble.LiveOptions{
		Options:       lshensemble.Options{NumPartitions: 16},
		SealThreshold: *n / 4, // several seals per drifted batch
	})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()
	p, r := measure(idx, corpus, records, 50)
	fmt.Printf("initial: %s, P=%.3f R=%.3f\n", describe(idx.Stats()), p, r)

	// Stream in batches whose sizes are drawn from a *heavier* distribution
	// (alpha 1.5 instead of 2.0), while retiring a slice of the oldest
	// domains — ingest and deletes never block the measurement queries
	// above, and the compactor seals behind the stream.
	for b := 1; b <= *batches; b++ {
		drift := datagen.OpenData(datagen.OpenDataConfig{
			NumDomains: *n / 2, Alpha: 1.5, Seed: uint64(100 + b),
		})
		driftRecs := datagen.Records(drift, hasher)
		for i := range driftRecs {
			key := fmt.Sprintf("batch%d-%s", b, driftRecs[i].Key)
			driftRecs[i].Key = key
			drift.Domains[i].Key = key
			if _, err := idx.Add(driftRecs[i]); err != nil {
				log.Fatal(err)
			}
		}
		corpus.Domains = append(corpus.Domains, drift.Domains...)
		records = append(records, driftRecs...)

		// Retire every 10th domain of the previous generation. The exact
		// engine's ground truth must retire them too, so precision/recall
		// keep comparing the index against the *surviving* corpus.
		retired := 0
		for i := 0; i < len(corpus.Domains); i += 10 {
			if idx.Delete(corpus.Domains[i].Key) {
				retired++
				corpus.Domains[i] = datagen.Domain{}
			}
		}
		live := corpus.Domains[:0]
		liveRecs := records[:0]
		for i, d := range corpus.Domains {
			if d.Key != "" {
				live = append(live, d)
				liveRecs = append(liveRecs, records[i])
			}
		}
		corpus.Domains = live
		records = liveRecs

		idx.Flush() // drain the buffer so the printed shape is all segments
		p, r := measure(idx, corpus, records, 50)
		fmt.Printf("after batch %d (retired %d): %s, P=%.3f R=%.3f\n",
			b, retired, describe(idx.Stats()), p, r)
	}

	// Full compaction replaces the old stop-the-world rebuild: one segment,
	// equi-depth re-partitioned over the surviving corpus, tombstones gone —
	// and queries kept flowing the whole time.
	idx.Compact()
	p, r = measure(idx, corpus, records, 50)
	fmt.Printf("compacted: %s, P=%.3f R=%.3f\n", describe(idx.Stats()), p, r)

	// What the query planner did across all the measurement runs above:
	// segments ruled out by size range or the collision Bloom filter were
	// never probed, and repeated queries came from the result cache.
	st := idx.Stats()
	pl := st.Planner
	decisions := pl.SegmentsProbed + pl.SegmentsRangePruned + pl.SegmentsBloomPruned
	fmt.Printf("planner: %d/%d segment visits pruned (%d by size range, %d by Bloom), "+
		"result cache %d hits/%d misses\n",
		pl.SegmentsRangePruned+pl.SegmentsBloomPruned, decisions,
		pl.SegmentsRangePruned, pl.SegmentsBloomPruned,
		pl.ResultHits, pl.ResultMisses)
	for i, d := range st.SegmentDetail {
		fmt.Printf("  segment %d: %d entries, sizes [%d, %d], max bound %d, bloom %s\n",
			i, d.Entries, d.MinSize, d.MaxSize, d.MaxBound, byteCount(d.BloomBytes))
	}
}

func byteCount(n int) string {
	if n >= 1<<10 {
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
