package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"lshensemble"
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

// readerSeeds are bodies at the edges of the canonical subset: what the
// reader reads itself and what it must leave to encoding/json.
var readerSeeds = []string{
	`{"values":["a","b","a"],"threshold":0.5,"size":2}`,
	`{"values":["a"],"k":3,"size":0}`,
	`{"queries":[{"values":["a"],"threshold":0.7},{"values":["b","c"],"size":3}],"workers":2}`,
	`{"seed":42,"size":3,"threshold":0.25}`,
	`{"seed":18446744073709551615,"queries":[{"size":1},{"size":2,"threshold":1}]}`,
	`{"seed":18446744073709551616,"size":1}`,
	` {"values" : [ "a" , "b" ] , "threshold" : 5E-1 } ` + "\n\t\r",
	`{}`, ``, `null`, `[]`, `"x"`, `{"values":[]}`, `{"queries":[]}`,
	`{"values":["caf\u00e9","x"]}`,
	`{"values":["\ud83d\ude00","\ud800"]}`,
	`{"values":["a\u0000b"]}`,
	`{"values":["a\"b","c\\d","e\/f"]}`,
	"{\"values\":[\"a\xffb\"]}",
	"{\"values\":[\"\xed\xa0\x80\"]}",
	"{\"values\":[\"tab\there\"]}",
	`{"values":["Montréal","東京","😀"]}`,
	`{"VALUES":["a"]}`, `{"Values":["a"],"Threshold":0.6,"Size":1}`,
	`{"valueſ":["a"]}`,
	`{"values":["a"],"K":3}`, `{"values":["a"],"K":3}`, // the Kelvin sign folds to k
	`{"Queries":[{"values":["x"]}],"Workers":1}`,
	`{"values":null}`, `{"values":["a"],"threshold":null}`, `{"queries":null}`, `{"queries":[null]}`,
	`{"values":["a"],"values":["b"]}`, `{"values":["a"],"size":1,"size":2}`,
	`{"queries":[{"values":["a"]}],"queries":[{"values":["b"]}]}`,
	`{"values":["a"],"size":1.0}`, `{"values":["a"],"size":1e2}`, `{"values":["a"],"size":-0}`,
	`{"values":["a"],"threshold":-0}`, `{"values":["a"],"threshold":1e400}`, `{"values":["a"],"threshold":1e-400}`,
	`{"values":["a"],"size":9223372036854775807}`, `{"values":["a"],"size":9223372036854775808}`,
	`{"seed":-0,"size":1}`, `{"values":["a"],"size":01}`, `{"values":["a"],"threshold":.5}`,
	`{"values":["a"],"size":+1}`, `{"values":["a"],"threshold":1.}`, `{"values":["a"],"size":-}`,
	`{"values":["a"],"threshold":0x1p-2}`, `{"values":["a"],"threshold":Infinity}`,
	`{"values":["a"]} `, "{\"values\":[\"a\"]}\f", `{"values":["a"]}x`, `{"values":["a"]}]`, `{"values":["a"]}{}`,
	`{"values":["a"],}`, `{"values":["a",]}`, `{"values":["a" "b"]}`, `{,"values":["a"]}`, `{"values":["a"]`,
	`{"values":["a"],"extra":{"x":[1,2]}}`, `{"queries":[{"values":["a"],"k":1}]}`,
	`{"queries":[{"values":["a"],"seed":1}]}`, `{"values":[1]}`, `{"values":"a"}`, `{"size":"1","values":["a"]}`,
	"\xef\xbb\xbf{\"values\":[\"a\"]}", // a byte order mark
	`{"\u0076alues":["a"]}`, `{"values":["a\"]}`, `{"values":["a\`, `{"values":["a\x"]}`, `{"values":["\uZZZZ"]}`, `{"values":["\b\f\n\r\t\"\\\/"]}`,
	"{\"values\":[\"a\\n\x01\"]}", "{\"values\":[\"\\u00e9\xff\",\"\\\"\"]}",
	// The writes' keys.
	`{"key":"k","values":["a","b","a"]}`, `{"values":["a"],"key":"caf\u00e9"}`, `{"key":"","values":[]}`,
	`{"key":"k"}`, `{"key":null,"values":["a"]}`, `{"Key":"k","values":["a"]}`, `{"key":"k","key":"j"}`,
	`{"key":1}`, `{"key":"k","values":["a"],"size":3}`, "{\"key\":\"\xff\"}", `{"key":"a\"b"} x`,
	`{"key":"k","values":["a"],"values":["b"]}`, `{"key":"\u0000","values":["a"]}`, `{"key":"k","values":null}`,
	`{"key":["k"]}`, `{"values":["a"],"key":"k","threshold":0.5}`, `{"KEY":"k"}`, `{"key":"k","key":null}`,
	// Numbers at the edges of each field's type.
	`{"values":["a"],"threshold":0}`, `{"values":["a"],"threshold":1}`, `{"values":["a"],"threshold":-1}`,
	`{"values":["a"],"threshold":1.5e0}`, `{"values":["a"],"threshold":0.5E+0}`, `{"values":["a"],"threshold":5e-1}`,
	`{"values":["a"],"threshold":00.5}`, `{"values":["a"],"threshold":1e}`, `{"values":["a"],"threshold":1e+}`,
	`{"values":["a"],"threshold":"0.5"}`, `{"values":["a"],"threshold":true}`, `{"values":["a"],"threshold":[0.5]}`,
	`{"values":["a"],"threshold":-0.0}`, `{"values":["a"],"threshold":4.9e-324}`, `{"values":["a"],"threshold":1.7976931348623157e308}`,
	`{"values":["a"],"k":0}`, `{"values":["a"],"k":-1}`, `{"values":["a"],"k":1.5}`, `{"values":["a"],"k":1e0}`,
	`{"values":["a"],"k":9223372036854775807}`, `{"values":["a"],"k":-9223372036854775808}`, `{"values":["a"],"k":-9223372036854775809}`,
	`{"queries":[{"values":["a"]}],"workers":-1}`, `{"queries":[{"values":["a"]}],"workers":1.0}`,
	`{"queries":[{"values":["a"]}],"workers":99999999999999999999}`, `{"values":["a"],"size":-9223372036854775808}`,
	// Structure.
	`{"values":[""]}`, `{"values":["",""]}`, `{ }`, `{"values":[ ]}`, `{"queries":[{}]}`, `{"queries":[{"values":[]}]}`,
	`{"queries":[{"values":["a"]},]}`, `{"queries":{"values":["a"]}}`, `{"queries":[[]]}`,
	`{"queries":[{"values":["a"],"queries":[]}]}`, `{"queries":[{"values":["a"],"workers":1}]}`,
	`{"queries":[{"values":["a"],"values":["b"]}]}`, `{"values":["a"]} null`, "{\"values\":[\"a\"]}\xc2\xa0",
	// Strings: escapes, surrogates and UTF-8 at their edges.
	`{"values":["\u0000"]}`, `{"values":["\uD83D\uDE00"]}`, `{"values":["\udc00"]}`, `{"values":["\ud800\u0041"]}`,
	`{"values":["\ud800\ud800"]}`, `{"values":["\u002"]}`, `{"values":["a\u00"]}`, `{"values":["\'"]}`,
	`{"values":["\u007f","\u2028"]}`, "{\"values\":[\"\x7f\"]}", "{\"values\":[\"\xc0\xaf\"]}",
	"{\"values\":[\"\xf4\x90\x80\x80\"]}", "{\"values\":[\"\xe6\x9d\"]}", "{\"values\":[\"a\nb\"]}",
}

// FuzzQueryReader: read as any of the five shapes (which, modulo five, is
// the Op) any bytes read to exactly the rows (hashes, threshold, k, size),
// workers and key that decodeOne and HashString give, and a body decodeOne
// refuses is refused with decodeOne's words. Where the one-pass reader takes
// a body itself, without the fallback, its reading is held to the same
// reference.
func FuzzQueryReader(f *testing.F) {
	for o := Op(0); o < numRecordOps; o++ {
		for _, s := range readerSeeds {
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

// TestShardRefusesFailedReadAsDecoding: a JSON query body whose read fails
// part way — at the 64 MiB limit, or a client gone — is refused by a shard in
// the words of encoding/json decoding the bytes that came, then the failed
// read, after "decoding request:", as when the shard decoded the stream.
func TestShardRefusesFailedReadAsDecoding(t *testing.T) {
	s, _ := testServer(t, "")
	tooLarge := &http.MaxBytesError{Limit: MaxRequestBody}
	for _, c := range []struct {
		came string
		err  error
		want string
	}{
		{`{"values":["a","b`, tooLarge, "decoding request: http: request body too large"},
		{`{"values":["a"],"threshold"`, io.ErrUnexpectedEOF, "decoding request: unexpected EOF"},
		{`{"values":["a"],"bogus":1}`, tooLarge, `decoding request: json: unknown field "bogus"`},
		{`{"values":x`, tooLarge, "decoding request: invalid character 'x' looking for beginning of value"},
		{`{"values":["a"]}`, tooLarge, "decoding request: data after the JSON value"},
	} {
		for _, path := range []string{"/query", "/query/topk"} {
			req := httptest.NewRequest(http.MethodPost, path, io.MultiReader(strings.NewReader(c.came), iotest.ErrReader(c.err)))
			rr := httptest.NewRecorder()
			s.ServeHTTP(rr, req)
			var got ErrorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &got); rr.Code != http.StatusBadRequest || err != nil || got.Error != c.want {
				t.Errorf("%s %q then %v: HTTP %d %s, want 400 %q", path, c.came, c.err, rr.Code, rr.Body, c.want)
			}
		}
	}
}

// TestReadQueryAllocsFlat: reading and resolving a /query body allocates the
// same few times for 1 000 values as for 10 — the values are hashed where
// they lie, never copied out one string each.
func TestReadQueryAllocsFlat(t *testing.T) {
	h := lshensemble.NewHasher(fixtureNumHash, fixtureSeed)
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
