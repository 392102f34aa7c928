package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lshensemble/internal/minhash"
)

// jsonQuery reads a body with encoding/json alone: decodeOne into the shape's
// wire type, then HashString of every value. It is the reference the reader
// is held to.
func jsonQuery(body []byte, o Op) (query, error) {
	hash := func(values []string) []uint64 {
		var hvs []uint64
		for _, v := range values {
			hvs = append(hvs, minhash.HashString(v))
		}
		return hvs
	}
	var q query
	var err error
	switch o {
	case OpQuery:
		var doc QueryRequest
		err = decodeOne(bytes.NewReader(body), &doc)
		q = query{Rows: []queryRow{{Hashes: hash(doc.Values), Threshold: doc.Threshold, Size: doc.Size}}}
	case OpTopK:
		var doc TopKRequest
		err = decodeOne(bytes.NewReader(body), &doc)
		q = query{Rows: []queryRow{{Hashes: hash(doc.Values), K: doc.K, Size: doc.Size}}}
	case OpBatch:
		var doc BatchRequest
		err = decodeOne(bytes.NewReader(body), &doc)
		q = query{Workers: doc.Workers}
		for _, r := range doc.Queries {
			q.Rows = append(q.Rows, queryRow{Hashes: hash(r.Values), Threshold: r.Threshold, Size: r.Size})
		}
	case OpAdd:
		var doc AddRequest
		err = decodeOne(bytes.NewReader(body), &doc)
		q = query{Key: doc.Key, Rows: []queryRow{{Hashes: hash(doc.Values)}}}
	case OpDelete:
		var doc DeleteRequest
		err = decodeOne(bytes.NewReader(body), &doc)
		q = query{Key: doc.Key, Rows: []queryRow{{}}}
	}
	if err != nil {
		return query{}, err
	}
	return q, nil
}

// sameQuery reports whether two reads agree on every field, thresholds to
// the bit (a -0 stays a -0).
func sameQuery(a, b query) bool {
	if a.Workers != b.Workers || a.Key != b.Key || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i, ra := range a.Rows {
		rb := b.Rows[i]
		if !slices.Equal(ra.Hashes, rb.Hashes) || math.Float64bits(ra.Threshold) != math.Float64bits(rb.Threshold) ||
			ra.K != rb.K || ra.Size != rb.Size {
			return false
		}
	}
	return true
}

// readerSeeds are the bodies of testdata/reader_seeds.txt: at the edges of
// the canonical subset, what the reader reads itself and what it must leave
// to encoding/json. The shard's FuzzQueryReader (internal/serve) reads the
// same file.
func readerSeeds(t testing.TB) []string {
	b, err := os.ReadFile("testdata/reader_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	var seeds []string
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("reader seed %s: %v", line, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// FuzzQueryReader: read as any of the five shapes (which, modulo five, is
// the Op) any bytes read to exactly the rows (hashes, threshold, k, size),
// workers and key that decodeOne and HashString give, and a body decodeOne
// refuses is refused with decodeOne's words. Where the one-pass reader takes
// a body itself, without the fallback, its reading is held to the same
// reference.
func FuzzQueryReader(f *testing.F) {
	for o := Op(0); o < numRecordOps; o++ {
		for _, s := range readerSeeds(f) {
			f.Add(int(o), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, which int, body []byte) {
		o := Op((which%int(numRecordOps) + int(numRecordOps)) % int(numRecordOps))
		want, wantErr := jsonQuery(body, o)
		got, err := readQuery(body, o)
		switch {
		case wantErr != nil && (err == nil || err.Error() != wantErr.Error()):
			t.Fatalf("%s %q: refused with %v, want %v", o, body, err, wantErr)
		case wantErr == nil && (err != nil || !sameQuery(got, want)):
			t.Fatalf("%s %q: read %+v (%v), want %+v", o, body, got, err, want)
		}
		d := queryReader{b: body}
		if fast, ok := d.query(o); ok && (wantErr != nil || !sameQuery(fast, want)) {
			t.Fatalf("%s %q: the one-pass reader read %+v, encoding/json %+v (%v)", o, body, fast, want, wantErr)
		}
	})
}

// TestReaderTakesCanonicalBodies: the bodies encoding/json writes for the
// wire types — whose strings escape &, <, >, U+2028 and U+2029 and spell
// invalid UTF-8 as � — and those of an encoder that escapes every
// non-ASCII rune, as Python's json.dumps does by default, are read by the
// one-pass reader itself, never the fallback, to what encoding/json reads.
func TestReaderTakesCanonicalBodies(t *testing.T) {
	escaped := []string{"AT&T", "<td>", "a\u2028b\u2029", "\xffx", `q"uo\te`, "tab\tnl\n", "\b\f\r"}
	for _, c := range []struct {
		o    Op
		body []byte
	}{
		{OpQuery, mustMarshal(t, QueryRequest{Values: []string{"a", "Montréal", "x y"}, Threshold: 0.3, Size: 7})},
		{OpQuery, mustMarshal(t, QueryRequest{Values: escaped})},
		{OpTopK, mustMarshal(t, TopKRequest{Values: []string{"a"}, K: 4})},
		{OpTopK, mustMarshal(t, TopKRequest{Values: escaped, K: 4})},
		{OpBatch, mustMarshal(t, BatchRequest{Queries: []QueryRequest{{Values: []string{"a"}}, {Values: []string{"b"}, Threshold: 1e-9}}, Workers: -3})},
		{OpBatch, mustMarshal(t, BatchRequest{Queries: []QueryRequest{{Values: escaped[:3]}, {Values: escaped[3:]}}})},
		{OpBatch, mustMarshal(t, BatchRequest{Queries: []QueryRequest{{Values: []string{"a"}, Size: 1}, {Values: []string{"b"}, Size: math.MaxInt, Threshold: 2.2250738585072014e-308}}})},
		// json.dumps({"values": ["Montréal", "東京", "😀", "AT&T"], "threshold": 0.5})
		{OpQuery, []byte(`{"values": ["Montr\u00e9al", "\u6771\u4eac", "\ud83d\ude00", "AT&T"], "threshold": 0.5}`)},
	} {
		d := queryReader{b: c.body}
		got, ok := d.query(c.o)
		if !ok {
			t.Errorf("%s: %s left to encoding/json", c.o, c.body)
			continue
		}
		if want, err := jsonQuery(c.body, c.o); err != nil || !sameQuery(got, want) {
			t.Errorf("%s: %s read as %+v, encoding/json reads %+v (%v)", c.o, c.body, got, want, err)
		}
	}
}

// TestReadQueryAllocsFlat: reading and resolving a /query body allocates the
// same few times for 1 000 values as for 10 — the values are hashed where
// they lie, never copied out one string each.
func TestReadQueryAllocsFlat(t *testing.T) {
	h := minhash.NewHasher(256, 1)
	allocs := func(n int) float64 {
		body := mustMarshal(t, QueryRequest{Values: windowValues(0, n), Threshold: 0.5})
		return testing.AllocsPerRun(50, func() {
			q, err := readQuery(body, OpQuery)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.check(OpQuery); err != nil {
				t.Fatal(err)
			}
			q.sketch(OpQuery, h)
		})
	}
	small, large := allocs(10), allocs(1000)
	if large > small+4 {
		t.Fatalf("reading and resolving allocates %v times for 1 000 values, %v for 10", large, small)
	}
	t.Logf("allocations per read and resolve: %v for 10 values, %v for 1 000", small, large)
}

// BenchmarkReadQuery reads a 60-value /query body with the reader and with
// encoding/json alone (decodeOne, then HashString of each value), once with
// values as they are and once with an escape in every value: each ends in
// "&co", which encoding/json writes as &co.
func BenchmarkReadQuery(b *testing.B) {
	plain := windowValues(0, 60)
	amp := make([]string, len(plain))
	for i, v := range plain {
		amp[i] = v + "&co"
	}
	for _, c := range []struct {
		name   string
		values []string
	}{{"plain", plain}, {"escaped", amp}} {
		body := mustMarshal(b, QueryRequest{Values: c.values, Threshold: 0.5})
		for _, r := range []struct {
			name string
			read func([]byte, Op) (query, error)
		}{{"reader", readQuery}, {"encoding-json", jsonQuery}} {
			b.Run(c.name+"/"+r.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := r.read(body, OpQuery); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func windowValues(start, n int) []string {
	vals := make([]string, n)
	for j := range vals {
		vals[j] = fmt.Sprintf("v%05d", start+j)
	}
	return vals
}
