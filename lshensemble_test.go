package lshensemble_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"lshensemble"
)

// tableFixture: small "open data" tables whose columns have known
// containment relationships.
func tableFixture() map[string][]string {
	provinces := []string{"Ontario", "Quebec", "British Columbia", "Alberta",
		"Manitoba", "Saskatchewan", "Nova Scotia", "New Brunswick",
		"Newfoundland and Labrador", "Prince Edward Island"}
	locations := append(append([]string{}, provinces...),
		"Toronto", "Montreal", "Vancouver", "Calgary", "Edmonton",
		"Ottawa", "Winnipeg", "Halifax", "Victoria", "Regina")
	partners := []string{"Acme Mining", "Maple Software", "Northern Rail",
		"Pacific Fisheries", "Prairie Agritech", "Atlantic Shipping",
		"Arctic Research Co", "Great Lakes Energy", "Boreal Forestry",
		"Laurentian Biotech", "Cascadia Robotics", "Tundra Logistics"}
	return map[string][]string{
		"grants:province":  provinces,
		"geo:location":     locations,
		"grants:partner":   partners,
		"contracts:vendor": partners[:8],
	}
}

func buildFixture(t testing.TB) (*lshensemble.LiveIndex, *lshensemble.Hasher, map[string][]string) {
	t.Helper()
	h := lshensemble.NewHasher(256, 1)
	tables := tableFixture()
	var records []lshensemble.DomainRecord
	keys := make([]string, 0, len(tables))
	for k := range tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		records = append(records, lshensemble.SketchStrings(h, k, tables[k]))
	}
	return builtOnce(t, records, lshensemble.Options{NumHash: 256, RMax: 8, NumPartitions: 2}), h, tables
}

func TestPublicAPIEndToEnd(t *testing.T) {
	idx, h, tables := buildFixture(t)
	// provinces ⊂ locations: querying with provinces at t*=1.0 must find
	// geo:location (and the domain itself).
	q := lshensemble.SketchStrings(h, "query", tables["grants:province"])
	res := idx.Query(q.Sig, q.Size, 1.0)
	found := map[string]bool{}
	for _, k := range res {
		found[k] = true
	}
	if !found["geo:location"] || !found["grants:province"] {
		t.Fatalf("containment search missed a superset: %v", res)
	}
	if found["grants:partner"] {
		t.Fatalf("unrelated domain retrieved at t*=1.0: %v", res)
	}
}

func TestPublicAPIPartialContainment(t *testing.T) {
	idx, h, tables := buildFixture(t)
	// vendors = partners[:8] so t(partner-query, vendor) = 8/12 ≈ 0.67.
	q := lshensemble.SketchStrings(h, "query", tables["grants:partner"])
	res := idx.Query(q.Sig, q.Size, 0.5)
	found := map[string]bool{}
	for _, k := range res {
		found[k] = true
	}
	if !found["contracts:vendor"] {
		t.Fatalf("partial containment missed at t*=0.5: %v", res)
	}
	// At t*=0.95 the vendor column (0.67) should usually be dropped; the
	// domain itself must remain.
	res = idx.Query(q.Sig, q.Size, 0.95)
	selfFound := false
	for _, k := range res {
		if k == "grants:partner" {
			selfFound = true
		}
	}
	if !selfFound {
		t.Fatalf("self lost at t*=0.95: %v", res)
	}
}

func TestSketchStringsDeduplicates(t *testing.T) {
	h := lshensemble.NewHasher(64, 1)
	r := lshensemble.SketchStrings(h, "k", []string{"a", "a", "b", "b", "b"})
	if r.Size != 2 {
		t.Fatalf("Size = %d, want 2 (distinct values)", r.Size)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	idx, h, tables := buildFixture(t)
	var buf bytes.Buffer
	if err := lshensemble.SaveLive(&buf, idx); err != nil {
		t.Fatal(err)
	}
	loaded, err := lshensemble.LoadLive(&buf, lshensemble.LiveOptions{ManualCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	q := lshensemble.SketchStrings(h, "query", tables["grants:province"])
	a := idx.Query(q.Sig, q.Size, 0.9)
	b := loaded.Query(q.Sig, q.Size, 0.9)
	sort.Strings(a)
	sort.Strings(b)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("round trip changed results: %v vs %v", a, b)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := lshensemble.LoadLive(bytes.NewReader([]byte("junk")), lshensemble.LiveOptions{}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPartitionerVariables(t *testing.T) {
	h := lshensemble.NewHasher(64, 1)
	var records []lshensemble.DomainRecord
	for i := 0; i < 40; i++ {
		vals := make([]string, 10+i)
		for j := range vals {
			vals[j] = fmt.Sprintf("v%d-%d", i, j)
		}
		records = append(records, lshensemble.SketchStrings(h, fmt.Sprintf("d%d", i), vals))
	}
	for name, pf := range map[string]lshensemble.PartitionerFunc{
		"equidepth": lshensemble.EquiDepth,
		"equiwidth": lshensemble.EquiWidth,
		"minimax":   lshensemble.Minimax,
	} {
		idx := builtOnce(t, records, lshensemble.Options{NumHash: 64, RMax: 4, NumPartitions: 4, Partitioner: pf})
		r := records[0]
		res := idx.Query(r.Sig, r.Size, 1.0)
		ok := false
		for _, k := range res {
			if k == r.Key {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("%s: self-retrieval failed", name)
		}
	}
}

func ExampleBuildLive() {
	hasher := lshensemble.NewHasher(256, 42)
	records := []lshensemble.DomainRecord{
		lshensemble.SketchStrings(hasher, "colors",
			[]string{"red", "green", "blue", "cyan", "magenta", "yellow", "black", "white", "orange", "purple"}),
		lshensemble.SketchStrings(hasher, "primaries",
			[]string{"red", "green", "blue"}),
	}
	index, err := lshensemble.BuildLive(records, lshensemble.LiveOptions{
		Options: lshensemble.Options{NumPartitions: 2},
	})
	if err != nil {
		panic(err)
	}
	defer index.Close()
	query := lshensemble.SketchStrings(hasher, "q", []string{"red", "green", "blue"})
	matches := index.Query(query.Sig, query.Size, 1.0)
	sort.Strings(matches)
	fmt.Println(matches)
	// Output: [colors primaries]
}
