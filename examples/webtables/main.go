// Web-table scaling demo: build a sharded LSH Ensemble over a WDC-like
// corpus (power-law sizes) and measure indexing throughput and query
// latency — a laptop-scale version of the paper's Table 4 / Figure 9
// deployment, with 5 in-process shards standing in for the 5-node cluster.
//
//	go run ./examples/webtables [-n 50000] [-shards 5] [-partitions 16]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"lshensemble"
	"lshensemble/internal/datagen"
	"lshensemble/internal/minhash"
)

func main() {
	n := flag.Int("n", 50000, "number of domains")
	shards := flag.Int("shards", 5, "number of index shards (simulated nodes)")
	partitions := flag.Int("partitions", 16, "partitions per shard")
	nq := flag.Int("queries", 100, "number of sampled queries")
	flag.Parse()

	fmt.Printf("generating %d web-table-like domains...\n", *n)
	corpus := datagen.WebTable(datagen.WebTableConfig{NumDomains: *n, Seed: 3})
	hasher := minhash.NewHasher(256, 3)

	start := time.Now()
	records := datagen.Records(corpus, hasher)
	sketching := time.Since(start)

	start = time.Now()
	var indexes []*lshensemble.LiveIndex
	chunk := (len(records) + *shards - 1) / *shards
	for lo := 0; lo < len(records); lo += chunk {
		hi := lo + chunk
		if hi > len(records) {
			hi = len(records)
		}
		idx, err := lshensemble.BuildLive(records[lo:hi], lshensemble.LiveOptions{
			Options:          lshensemble.Options{NumPartitions: *partitions},
			ManualCompaction: true, // built once, never written to
		})
		if err != nil {
			log.Fatal(err)
		}
		indexes = append(indexes, idx)
	}
	building := time.Since(start)
	fmt.Printf("sketching: %s, index build: %s (%d shards × %d partitions)\n",
		sketching.Round(time.Millisecond), building.Round(time.Millisecond),
		len(indexes), *partitions)

	queryAll := func(sig lshensemble.Signature, size int, t float64) []string {
		results := make([][]string, len(indexes))
		var wg sync.WaitGroup
		for i, idx := range indexes {
			wg.Add(1)
			go func(i int, idx *lshensemble.LiveIndex) {
				defer wg.Done()
				results[i] = idx.Query(sig, size, t)
			}(i, idx)
		}
		wg.Wait()
		var out []string
		for _, r := range results {
			out = append(out, r...)
		}
		return out
	}

	queries := datagen.SampleQueries(corpus, *nq, 3)
	start = time.Now()
	total := 0
	for _, qi := range queries {
		total += len(queryAll(records[qi].Sig, records[qi].Size, 0.5))
	}
	elapsed := time.Since(start)
	fmt.Printf("%d queries at t*=0.5: mean latency %s, mean candidates %.1f\n",
		len(queries), (elapsed / time.Duration(len(queries))).Round(time.Microsecond),
		float64(total)/float64(len(queries)))
}
