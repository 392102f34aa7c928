package datagen

import (
	"testing"

	"lshensemble/internal/exact"
	"lshensemble/internal/expt/stats"
	"lshensemble/internal/minhash"
)

func TestOpenDataShape(t *testing.T) {
	c := OpenData(OpenDataConfig{NumDomains: 2000, Seed: 1})
	if len(c.Domains) != 2000 {
		t.Fatalf("got %d domains", len(c.Domains))
	}
	for i, d := range c.Domains {
		if len(d.Values) < 10 {
			t.Fatalf("domain %d smaller than MinSize: %d", i, len(d.Values))
		}
		seen := map[uint64]struct{}{}
		for _, v := range d.Values {
			if _, dup := seen[v]; dup {
				t.Fatalf("domain %d has duplicate value %d", i, v)
			}
			seen[v] = struct{}{}
		}
		if d.Key == "" {
			t.Fatalf("domain %d has empty key", i)
		}
	}
}

func TestOpenDataDeterministic(t *testing.T) {
	a := OpenData(OpenDataConfig{NumDomains: 200, Seed: 7})
	b := OpenData(OpenDataConfig{NumDomains: 200, Seed: 7})
	for i := range a.Domains {
		if len(a.Domains[i].Values) != len(b.Domains[i].Values) {
			t.Fatalf("domain %d size differs across runs", i)
		}
		for j := range a.Domains[i].Values {
			if a.Domains[i].Values[j] != b.Domains[i].Values[j] {
				t.Fatalf("domain %d value %d differs across runs", i, j)
			}
		}
	}
	c := OpenData(OpenDataConfig{NumDomains: 200, Seed: 8})
	diff := false
	for i := range a.Domains {
		if len(a.Domains[i].Values) != len(c.Domains[i].Values) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestOpenDataPowerLawSizes(t *testing.T) {
	c := OpenData(OpenDataConfig{NumDomains: 20000, Alpha: 2.0, Seed: 2})
	alpha := stats.PowerLawAlphaMLE(c.Sizes(), 10)
	if alpha < 1.7 || alpha > 2.3 {
		t.Fatalf("size distribution alpha = %v, want ~2.0", alpha)
	}
	if sk := stats.SkewnessInts(c.Sizes()); sk < 2 {
		t.Fatalf("sizes not skewed enough: skewness %v", sk)
	}
}

func TestOpenDataHasContainmentStructure(t *testing.T) {
	// The corpus must yield non-trivial ground truth: for a sample of
	// queries there should be other domains containing ≥ 50% of them.
	c := OpenData(OpenDataConfig{NumDomains: 1500, Seed: 3})
	e := exact.Build(ExactDomains(c))
	queries := SampleQueries(c, 60, 3)
	withMatch := 0
	for _, qi := range queries {
		truth := e.Truth(c.Domains[qi].Values, 0.5)
		// Exclude the query itself.
		delete(truth, c.Domains[qi].Key)
		if len(truth) > 0 {
			withMatch++
		}
	}
	if withMatch < 20 {
		t.Fatalf("only %d/60 queries have non-self matches at t*=0.5 — corpus lacks containment structure", withMatch)
	}
}

func TestOpenDataContainmentSpectrum(t *testing.T) {
	// Scores should span a spectrum, not cluster at 0/1 only.
	c := OpenData(OpenDataConfig{NumDomains: 1000, Seed: 4})
	e := exact.Build(ExactDomains(c))
	mid := 0
	for _, qi := range SampleQueries(c, 40, 4) {
		for _, s := range e.Scores(c.Domains[qi].Values) {
			if s >= 0.2 && s <= 0.8 {
				mid++
			}
		}
	}
	if mid < 50 {
		t.Fatalf("only %d mid-range containment pairs — spectrum too thin", mid)
	}
}

func TestWebTableShape(t *testing.T) {
	c := WebTable(WebTableConfig{NumDomains: 5000, Seed: 5})
	if len(c.Domains) != 5000 {
		t.Fatalf("got %d domains", len(c.Domains))
	}
	alpha := stats.PowerLawAlphaMLE(c.Sizes(), 5)
	if alpha < 2.0 || alpha > 2.8 {
		t.Fatalf("webtable alpha = %v, want ~2.4", alpha)
	}
	for i, d := range c.Domains {
		seen := map[uint64]struct{}{}
		for _, v := range d.Values {
			if _, dup := seen[v]; dup {
				t.Fatalf("domain %d has duplicate value %d", i, v)
			}
			seen[v] = struct{}{}
		}
	}
}

func TestWebTablePrivateMode(t *testing.T) {
	// ClusterFraction/ZipfFraction < 0 disable overlap: two domains never
	// share values.
	c := WebTable(WebTableConfig{NumDomains: 500, ClusterFraction: -1, ZipfFraction: -1, Seed: 5})
	seen := map[uint64]int{}
	for i, d := range c.Domains {
		for _, v := range d.Values {
			if prev, ok := seen[v]; ok {
				t.Fatalf("domains %d and %d share value %d", prev, i, v)
			}
			seen[v] = i
		}
	}
}

func TestWebTableHasOverlap(t *testing.T) {
	// Default mode must produce cross-domain overlap (the Table 4 workload
	// needs non-trivial candidate sets).
	c := WebTable(WebTableConfig{NumDomains: 500, Seed: 5})
	e := exact.Build(ExactDomains(c))
	overlapping := 0
	for _, qi := range SampleQueries(c, 40, 5) {
		if len(e.Scores(c.Domains[qi].Values)) > 1 {
			overlapping++
		}
	}
	if overlapping < 20 {
		t.Fatalf("only %d/40 queries overlap another domain", overlapping)
	}
}

func TestRecordsAlignment(t *testing.T) {
	c := OpenData(OpenDataConfig{NumDomains: 300, Seed: 6})
	h := minhash.NewHasher(64, 1)
	recs := Records(c, h)
	if len(recs) != len(c.Domains) {
		t.Fatalf("record count %d != domain count %d", len(recs), len(c.Domains))
	}
	for i, r := range recs {
		if r.Key != c.Domains[i].Key {
			t.Fatalf("record %d key mismatch", i)
		}
		if r.Size != len(c.Domains[i].Values) {
			t.Fatalf("record %d size mismatch", i)
		}
		if r.Sig.IsEmpty() {
			t.Fatalf("record %d has empty signature", i)
		}
	}
	// Signature must equal a sequentially built one (parallel correctness).
	d := c.Domains[17]
	sig := h.NewSignature()
	for _, v := range d.Values {
		h.PushHashed(sig, minhash.HashUint64(v))
	}
	for j := range sig {
		if sig[j] != recs[17].Sig[j] {
			t.Fatal("parallel Records differs from sequential sketch")
		}
	}
}

func TestSampleQueriesDistinct(t *testing.T) {
	c := OpenData(OpenDataConfig{NumDomains: 100, Seed: 7})
	q := SampleQueries(c, 50, 1)
	seen := map[int]bool{}
	for _, i := range q {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("bad query index set: %v", q)
		}
		seen[i] = true
	}
	if got := SampleQueries(c, 1000, 1); len(got) != 100 {
		t.Fatalf("oversampling should clamp: %d", len(got))
	}
}

func TestQueriesBySizeDecile(t *testing.T) {
	c := OpenData(OpenDataConfig{NumDomains: 1000, Seed: 8})
	small := QueriesBySizeDecile(c, 0, 50, 1)
	large := QueriesBySizeDecile(c, 9, 50, 1)
	maxSmall, minLarge := 0, 1<<40
	for _, i := range small {
		if n := len(c.Domains[i].Values); n > maxSmall {
			maxSmall = n
		}
	}
	for _, i := range large {
		if n := len(c.Domains[i].Values); n < minLarge {
			minLarge = n
		}
	}
	if maxSmall > minLarge {
		t.Fatalf("decile split wrong: max small %d > min large %d", maxSmall, minLarge)
	}
}

func TestNestedSizeSubsets(t *testing.T) {
	c := OpenData(OpenDataConfig{NumDomains: 3000, Seed: 9})
	subsets := NestedSizeSubsets(c, 10)
	if len(subsets) != 10 {
		t.Fatalf("got %d subsets", len(subsets))
	}
	for i := 1; i < len(subsets); i++ {
		if len(subsets[i]) < len(subsets[i-1]) {
			t.Fatalf("subset %d smaller than %d — not nested", i, i-1)
		}
		member := map[int]bool{}
		for _, j := range subsets[i] {
			member[j] = true
		}
		for _, j := range subsets[i-1] {
			if !member[j] {
				t.Fatalf("subset %d missing member %d of subset %d", i, j, i-1)
			}
		}
	}
	if got := len(subsets[len(subsets)-1]); got != len(c.Domains) {
		t.Fatalf("final subset has %d of %d domains", got, len(c.Domains))
	}
	// Skewness should grow along the sweep (the Fig. 5 x-axis).
	sizes := c.Sizes()
	skew := func(idx []int) float64 {
		s := make([]int, len(idx))
		for i, j := range idx {
			s[i] = sizes[j]
		}
		return stats.SkewnessInts(s)
	}
	if skew(subsets[1]) >= skew(subsets[9]) {
		t.Fatalf("skewness not growing: %v vs %v", skew(subsets[1]), skew(subsets[9]))
	}
}
