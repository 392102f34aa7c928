// Quickstart: index a handful of string domains and run a containment
// query through the public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"lshensemble"
)

func main() {
	// One hash family for everything — index and queries must share it.
	hasher := lshensemble.NewHasher(256, 42)

	domains := map[string][]string{
		"provinces": {"Alberta", "Ontario", "Manitoba"},
		"locations": {"Illinois", "Chicago", "New York City", "New York",
			"Nova Scotia", "Halifax", "California", "San Francisco",
			"Seattle", "Washington", "Ontario", "Toronto"},
		"partners": {"Acme Mining", "Maple Software", "Northern Rail",
			"Pacific Fisheries", "Prairie Agritech", "Atlantic Shipping"},
	}

	var records []lshensemble.DomainRecord
	keys := make([]string, 0, len(domains))
	for k := range domains {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		records = append(records, lshensemble.SketchStrings(hasher, k, domains[k]))
	}

	index, err := lshensemble.BuildLive(records, lshensemble.LiveOptions{
		Options: lshensemble.Options{NumPartitions: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer index.Close() // stops the background compactor

	// The paper's running example: Q = {Ontario, Toronto}. Jaccard would
	// rank "provinces" above "locations"; containment correctly prefers
	// "locations", which holds all of Q. The index returns *candidates*
	// (it may include false positives); verify them with the exact score,
	// as a real pipeline would.
	q := []string{"Ontario", "Toronto"}
	query := lshensemble.SketchStrings(hasher, "Q", q)
	for _, t := range []float64{1.0, 0.5} {
		matches := index.Query(query.Sig, query.Size, t)
		sort.Strings(matches)
		fmt.Printf("t* = %.1f → candidates %v", t, matches)
		var verified []string
		for _, m := range matches {
			if containment(q, domains[m]) >= t {
				verified = append(verified, m)
			}
		}
		fmt.Printf(", verified %v\n", verified)
	}
}

// containment computes t(Q, X) = |Q ∩ X| / |Q| exactly.
func containment(q, x []string) float64 {
	set := make(map[string]bool, len(x))
	for _, v := range x {
		set[v] = true
	}
	hit := 0
	for _, v := range q {
		if set[v] {
			hit++
		}
	}
	return float64(hit) / float64(len(q))
}
