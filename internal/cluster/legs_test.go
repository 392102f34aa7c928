package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"lshensemble"
	"lshensemble/internal/datagen"
	"lshensemble/internal/minhash"
	"lshensemble/internal/serve"
	"lshensemble/internal/wire"
)

// jsonLeg is the record a client's body must be sent on as, worked out from
// strings: encoding/json into the wire type, then each row's values hashed,
// deduplicated in a map and sketched, its defaults filled in, and the result
// encoded as the shape's record.
func jsonLeg(t *testing.T, path string, body []byte, h *lshensemble.Hasher, seed uint64) []byte {
	t.Helper()
	decode := func(v any) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("%s %s: %v", path, body, err)
		}
	}
	sketch := func(values []string, size int) (lshensemble.Signature, int) {
		seen := map[uint64]bool{}
		var hvs []uint64
		for _, v := range values {
			if hv := minhash.HashString(v); !seen[hv] {
				seen[hv] = true
				hvs = append(hvs, hv)
			}
		}
		if size == 0 {
			size = len(hvs)
		}
		return h.Sketch(hvs), size
	}
	threshold := func(t float64) float64 {
		if t == 0 {
			return 0.5
		}
		return t
	}
	switch path {
	case "/query":
		var q wire.QueryRequest
		decode(&q)
		sig, size := sketch(q.Values, q.Size)
		return wire.AppendQueryRecord(nil, seed, lshensemble.BatchQuery{Sig: sig, Size: size, Threshold: threshold(q.Threshold)})
	case "/query/topk":
		var q wire.TopKRequest
		decode(&q)
		sig, size := sketch(q.Values, q.Size)
		k := q.K
		if k == 0 {
			k = 10
		}
		return wire.AppendTopKRecord(nil, seed, k, size, sig)
	}
	var b wire.BatchRequest
	decode(&b)
	var queries []lshensemble.BatchQuery
	for _, q := range b.Queries {
		sig, size := sketch(q.Values, q.Size)
		queries = append(queries, lshensemble.BatchQuery{Sig: sig, Size: size, Threshold: threshold(q.Threshold)})
	}
	return wire.AppendBatchRecord(nil, seed, min(b.Workers, runtime.GOMAXPROCS(0)), queries)
}

// TestRouterLegsMatchJSONPath: over bodies of all three shapes drawn from a
// generated lake, and bodies only encoding/json reads (escapes, keys in
// another case), the record leg the router sends — read off the record
// connection — is byte for byte the one that decoding the body with
// encoding/json and sketching its strings gives.
func TestRouterLegsMatchJSONPath(t *testing.T) {
	lake := datagen.OpenData(datagen.OpenDataConfig{NumDomains: 240, MaxSize: 400, Seed: 3})
	values := func(d int) []string {
		vals := make([]string, len(lake.Domains[d].Values))
		for i, v := range lake.Domains[d].Values {
			vals[i] = strconv.FormatUint(v, 36)
		}
		return vals
	}
	type body struct {
		path string
		json []byte
	}
	var bodies []body
	add := func(path string, v any) { bodies = append(bodies, body{path, mustMarshal(t, v)}) }
	thresholds := []float64{0, 0.3, 0.5, 0.8, 1}
	for i := 0; i < 70; i++ {
		size := 0
		if i%5 == 4 {
			size = 3 * len(lake.Domains[i].Values)
		}
		add("/query", wire.QueryRequest{Values: values(i), Threshold: thresholds[i%5], Size: size})
		add("/query/topk", wire.TopKRequest{Values: values(70 + i), K: i % 12, Size: size})
		batch := wire.BatchRequest{Workers: i%3 - 1}
		for r := 0; r <= i%8; r++ {
			batch.Queries = append(batch.Queries, wire.QueryRequest{Values: values(140 + (i+r)%100), Threshold: thresholds[(i+r)%5]})
		}
		add("/query/batch", batch)
	}
	for _, b := range []struct{ path, json string }{
		{"/query", `{"values":["caf\u00e9","\ud83d\ude00","a\"b","c\\d","e\/f"],"threshold":0.4}`},
		{"/query", `{"values":["Montréal","東京","😀","café"]}`},
		{"/query", `{"VALUES":["a","b","a"],"Threshold":0.6,"Size":9}`},
		{"/query", `{"valueſ":["a","b"]}`},
		{"/query", `{"values":["x"],"values":["a","b"],"threshold":null}`},
		{"/query/topk", `{"values":["a","b"],"K":3}`}, // the Kelvin sign
		{"/query/topk", `{"Values":["a","ab"],"k":2,"size":15}`},
		{"/query/batch", `{"Queries":[{"Values":["x"]},{"values":["y\u0000"],"threshold":0.9}],"Workers":1}`},
		{"/query/batch", "{\"queries\":[{\"values\":[\"ok\"]},{\"values\":[\"\xffbroken\"]}]}"},
	} {
		bodies = append(bodies, body{b.path, []byte(b.json)})
	}

	idx, err := lshensemble.BuildLive(nil, testLiveOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	front, surl := newRecordFront(t, serve.NewWith(idx, lshensemble.NewHasher(testNumHash, testSeed), testSeed, "", serve.Options{}))
	router, rts := startRouter(t, []string{surl}, Options{})
	router.CheckHealth()
	h := lshensemble.NewHasher(testNumHash, testSeed)
	for i, b := range bodies {
		if code, answer := postRaw(t, rts.URL+b.path, string(b.json)); code != http.StatusOK {
			t.Fatalf("body %d %s %s: HTTP %d %s", i, b.path, b.json, code, answer)
		}
		legs := front.recorded()
		if len(legs) != i+1 {
			t.Fatalf("body %d: the shard read %d record legs, want %d", i, len(legs), i+1)
		}
		if want := jsonLeg(t, b.path, b.json, h, testSeed); !bytes.Equal(legs[i], want) {
			t.Fatalf("body %d %s %.200s: leg of %d bytes differs from the encoding/json path's %d", i, b.path, b.json, len(legs[i]), len(want))
		}
	}
	if len(bodies) < 200 {
		t.Fatalf("only %d bodies compared", len(bodies))
	}
}

// chunked hides its reader's length, as a chunked request body does.
type chunked struct{ io.Reader }

// TestChunkedBodiesReadSmall: a body without a Content-Length costs what it
// holds, not a 1 MiB buffer — a small chunked /query to a shard and to the
// router allocates under 64 KiB a call all told — and a chunked batch of
// megabytes still reads whole.
func TestChunkedBodiesReadSmall(t *testing.T) {
	urls, shards := startShards(t, 1)
	router, _ := startRouter(t, urls, Options{})
	router.CheckHealth()
	post := func(h http.Handler, path, body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, chunked{strings.NewReader(body)}))
		return rr
	}
	const small = `{"values":["a","b","c"],"threshold":0.55}`
	for _, c := range []struct {
		name string
		h    http.Handler
	}{{"shard", shards[0].srv}, {"router", router}} {
		post(c.h, "/query", small) // warm the connection pool
		const calls = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if rr := post(c.h, "/query", small); rr.Code != http.StatusOK {
				t.Fatalf("%s: HTTP %d %s", c.name, rr.Code, rr.Body)
			}
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / calls
		if perCall >= 64<<10 {
			t.Errorf("%s: a chunked %d-byte /query allocates %d bytes a call", c.name, len(small), perCall)
		}
		t.Logf("%s: %d bytes allocated per chunked /query", c.name, perCall)
	}

	var batch wire.BatchRequest
	for r := 0; r < 100; r++ {
		vals := make([]string, 2500)
		for j := range vals {
			vals[j] = fmt.Sprintf("v%07d", r*1000+j)
		}
		batch.Queries = append(batch.Queries, wire.QueryRequest{Values: vals})
	}
	big := string(mustMarshal(t, batch))
	for _, c := range []struct {
		name string
		h    http.Handler
	}{{"shard", shards[0].srv}, {"router", router}} {
		rr := post(c.h, "/query/batch", big)
		var out wire.BatchResponse
		if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &out) != nil || len(out.Rows) != len(batch.Queries) {
			t.Fatalf("%s: chunked batch of %d bytes: HTTP %d, %d rows", c.name, len(big), rr.Code, len(out.Rows))
		}
	}
}

// TestRouterForwardsBatchWorkers: the router sends a batch's workers as the
// client asked them, GOMAXPROCS+5 here. The shard caps them at its own
// GOMAXPROCS; a router on fewer cores must not cap a larger shard's.
func TestRouterForwardsBatchWorkers(t *testing.T) {
	front, surl := newRecordFront(t, newShardServer(t, testSeed))
	router, rts := startRouter(t, []string{surl}, Options{})
	router.CheckHealth()
	asked := runtime.GOMAXPROCS(0) + 5
	body := fmt.Sprintf(`{"queries":[{"values":["a","b"]},{"values":["c"]}],"workers":%d}`, asked)
	if code, answer := postRaw(t, rts.URL+"/query/batch", body); code != http.StatusOK {
		t.Fatalf("batch: HTTP %d %s", code, answer)
	}
	legs := front.recorded()
	if len(legs) != 1 {
		t.Fatalf("the shard read %d record legs, want 1", len(legs))
	}
	// A batch record opens with the seed, then the workers: each 8 bytes
	// behind a uint32 length.
	if len(legs[0]) < 24 {
		t.Fatalf("a batch record of %d bytes", len(legs[0]))
	}
	if got := int64(binary.LittleEndian.Uint64(legs[0][16:])); got != int64(asked) {
		t.Fatalf("the batch record carries workers %d, want the client's %d", got, asked)
	}
}

// TestRouterRefusesFailedReadAsDecoding: a router whose body read fails part
// way refuses it as a shard does (TestShardRefusesFailedReadAsDecoding in
// internal/serve): in encoding/json's words for the bytes that came and then
// the failed read, after "decoding request:".
func TestRouterRefusesFailedReadAsDecoding(t *testing.T) {
	urls, _ := startShards(t, 1)
	router, _ := startRouter(t, urls, Options{})
	router.CheckHealth()
	tooLarge := &http.MaxBytesError{Limit: wire.MaxRequestBody}
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
			router.ServeHTTP(rr, req)
			var got wire.ErrorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &got); rr.Code != http.StatusBadRequest || err != nil || got.Error != c.want {
				t.Errorf("%s %q then %v: HTTP %d %s, want 400 %q", path, c.came, c.err, rr.Code, rr.Body, c.want)
			}
		}
	}
}
