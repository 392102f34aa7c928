// Open-data joinable-table discovery: generate an open-data-like corpus
// (power-law sizes, planted joinable clusters), build the LSH Ensemble and
// both paper baselines, and compare their accuracy against exact ground
// truth — a miniature of the paper's Figure 4 — then show an actual
// join-discovery query.
//
//	go run ./examples/opendata [-n 3000] [-queries 60]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"lshensemble"
	"lshensemble/internal/asym"
	"lshensemble/internal/baseline"
	"lshensemble/internal/datagen"
	"lshensemble/internal/eval"
	"lshensemble/internal/exact"
	"lshensemble/internal/minhash"
)

func main() {
	n := flag.Int("n", 3000, "number of domains")
	nq := flag.Int("queries", 60, "number of sampled queries")
	flag.Parse()

	fmt.Printf("generating %d open-data-like domains...\n", *n)
	corpus := datagen.OpenData(datagen.OpenDataConfig{NumDomains: *n, Seed: 7})
	hasher := minhash.NewHasher(256, 7)
	records := datagen.Records(corpus, hasher)

	ensemble, err := lshensemble.BuildLive(records, lshensemble.LiveOptions{
		Options:          lshensemble.Options{NumPartitions: 16},
		ManualCompaction: true, // built once, never written to
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ensemble.Close()
	base, err := baseline.Build(records, 256, 8)
	if err != nil {
		log.Fatal(err)
	}
	asymIdx, err := asym.Build(records, 256, 8)
	if err != nil {
		log.Fatal(err)
	}

	engine := exact.Build(datagen.ExactDomains(corpus))
	queries := datagen.SampleQueries(corpus, *nq, 7)

	fmt.Println("\naccuracy vs exact ground truth (mini Figure 4):")
	fmt.Println("system              t*    precision  recall")
	for _, tStar := range []float64{0.3, 0.5, 0.8} {
		for _, sys := range []struct {
			name  string
			query func(sig lshensemble.Signature, size int, t float64) []string
		}{
			{"Baseline", base.Query},
			{"Asym", asymIdx.Query},
			{"LSH Ensemble (16)", ensemble.Query},
		} {
			var avg eval.Averager
			for _, qi := range queries {
				truth := engine.Truth(corpus.Domains[qi].Values, tStar)
				res := sys.query(records[qi].Sig, records[qi].Size, tStar)
				p, r, empty := eval.PR(res, truth)
				avg.Add(p, r, empty)
			}
			fmt.Printf("%-18s  %.1f   %.3f      %.3f\n", sys.name, tStar, avg.Precision(), avg.Recall())
		}
	}

	// Join discovery for one concrete query domain.
	qi := queries[0]
	fmt.Printf("\njoinable domains for %s (%d values) at t* = 0.5:\n",
		corpus.Domains[qi].Key, len(corpus.Domains[qi].Values))
	matches := ensemble.Query(records[qi].Sig, records[qi].Size, 0.5)
	scores := engine.Scores(corpus.Domains[qi].Values)
	byKey := map[string]float64{}
	for id, s := range scores {
		byKey[engine.Key(id)] = s
	}
	sort.Slice(matches, func(a, b int) bool { return byKey[matches[a]] > byKey[matches[b]] })
	for i, m := range matches {
		if i >= 10 {
			fmt.Printf("  ... and %d more\n", len(matches)-10)
			break
		}
		fmt.Printf("  %-12s exact containment %.2f\n", m, byKey[m])
	}
}
