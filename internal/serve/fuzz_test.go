package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"lshensemble"
)

// fuzzEndpoints are the POST routes that decode untrusted JSON bodies.
// /save and /compact take no body and are excluded — /save would write to
// disk on every fuzz iteration.
var fuzzEndpoints = []string{"/add", "/delete", "/query", "/query/topk", "/query/batch"}

// FuzzWireJSON drives the HTTP wire layer with hostile bodies against
// every JSON-decoding endpoint. The server's contract: never panic, and
// answer every request with a routable status — 2xx for accepted bodies,
// 4xx for rejected ones, never a 5xx (the index below can't fail on
// in-memory operations).
func FuzzWireJSON(f *testing.F) {
	opts := lshensemble.LiveOptions{
		Options:       lshensemble.Options{NumHash: 32, RMax: 4, NumPartitions: 2},
		SealThreshold: 8,
	}
	idx, err := lshensemble.BuildLive(nil, opts)
	if err != nil {
		f.Fatal(err)
	}
	defer idx.Close()
	s := NewWith(idx, lshensemble.NewHasher(32, 1), 1, "", Options{})

	for i := range fuzzEndpoints {
		f.Add(i, []byte(`{"key":"k1","values":["a","b","c"]}`))
		f.Add(i, []byte(`{"values":["a","b"],"threshold":0.5,"size":2}`))
		f.Add(i, []byte(`{"values":["a"],"k":3}`))
		f.Add(i, []byte(`{"queries":[{"values":["a"]},{"values":["b"],"threshold":0.9}]}`))
		f.Add(i, []byte(`{}`))
		f.Add(i, []byte(``))
		f.Add(i, []byte(`{"values":[`))
		f.Add(i, []byte(`{"unknown_field":1}`))
		f.Add(i, []byte(`{"threshold":1e308}`))
	}
	f.Fuzz(func(t *testing.T, which int, body []byte) {
		ep := fuzzEndpoints[((which%len(fuzzEndpoints))+len(fuzzEndpoints))%len(fuzzEndpoints)]
		req := httptest.NewRequest(http.MethodPost, ep, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, req)
		if c := rr.Code; c >= 500 {
			t.Fatalf("%s answered %d for body %q", ep, c, body)
		}
		// Whatever the fuzzer did, the index must still answer /stats.
		srr := httptest.NewRecorder()
		s.ServeHTTP(srr, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if srr.Code != http.StatusOK {
			t.Fatalf("/stats broken after %s %q: %d", ep, body, srr.Code)
		}
	})
}
