package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"lshensemble"
	"lshensemble/internal/minhash"
)

// sketchedFixture is the family of testServer and a corpus with enough
// overlap that answers are non-trivial: windows into one value universe, of
// three sizes so partitions differ.
const (
	fixtureSeed    = 1
	fixtureNumHash = 256
)

func windowValues(start, n int) []string {
	vals := make([]string, n)
	for j := range vals {
		vals[j] = fmt.Sprintf("v%05d", start+j)
	}
	return vals
}

func seedWindows(t *testing.T, base string) {
	t.Helper()
	for i := 0; i < 60; i++ {
		post(t, base+"/add", AddRequest{Key: fmt.Sprintf("w%03d", i), Values: windowValues(i*4, 20+20*(i%3))}, http.StatusOK, nil)
	}
	// Settle the compactor, so two requests compared byte for byte meet the
	// same segments.
	post(t, base+"/compact", struct{}{}, http.StatusOK, nil)
}

// send posts one body under a content type and returns status and body.
func send(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func frame(t testing.TB, doc any, sigs ...lshensemble.Signature) []byte {
	t.Helper()
	b, err := AppendSketched(nil, doc, sigs...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSketchedEqualsRaw: on every query endpoint a request pre-sketched with
// SketchStrings gets an answer frame that decodes to exactly the rows and
// scores of the JSON answer the raw-values request gets — with and without a
// size override, with the threshold left to its default, and for a batch of
// mixed sizes.
func TestSketchedEqualsRaw(t *testing.T) {
	_, ts := testServer(t, "")
	seedWindows(t, ts.URL)
	h := lshensemble.NewHasher(fixtureNumHash, fixtureSeed)

	same := func(name, path string, raw any, framed []byte) {
		t.Helper()
		rawCode, rawBody := send(t, ts.URL+path, "application/json", mustMarshal(t, raw))
		resp, err := http.Post(ts.URL+path, SketchedContentType, bytes.NewReader(framed))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rawCode != http.StatusOK || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: raw HTTP %d (%s), sketched HTTP %d (%s)", name, rawCode, rawBody, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != SketchedContentType {
			t.Fatalf("%s: framed request answered as %q: %s", name, ct, body)
		}
		if !bytes.Contains(rawBody, []byte(`"w0`)) {
			t.Fatalf("%s: answer matches nothing, the comparison proves nothing: %s", name, rawBody)
		}
		rows, want, got := 1, any(new(QueryResponse)), any(new(QueryResponse))
		switch r := raw.(type) {
		case TopKRequest:
			want, got = new(TopKResponse), new(TopKResponse)
		case BatchRequest:
			rows, want, got = len(r.Queries), new(BatchResponse), new(BatchResponse)
		}
		if err := json.Unmarshal(rawBody, want); err != nil {
			t.Fatal(err)
		}
		if err := DecodeAnswer(body, rows, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: framed answer decodes to\n%+v\nJSON answer\n%+v", name, got, want)
		}
	}

	var batchRaw BatchRequest
	var batchDoc SketchedBatch
	batchDoc.Seed = fixtureSeed
	var batchSigs []lshensemble.Signature
	for _, c := range []struct {
		start, n     int
		threshold    float64
		sizeOverride int
	}{
		{0, 20, 0.5, 0},
		{13, 35, 0, 0},    // threshold 0 → the 0.5 default
		{40, 60, 0.8, 0},  // a larger query
		{8, 20, 0.5, 45},  // |Q| overridden upwards
		{100, 7, 0.3, 0},  // a small one
		{150, 50, 1.0, 0}, // exact containment
	} {
		name := fmt.Sprintf("window(%d,%d) t=%v size=%d", c.start, c.n, c.threshold, c.sizeOverride)
		values := windowValues(c.start, c.n)
		rec := lshensemble.SketchStrings(h, "query", values)
		size := rec.Size
		if c.sizeOverride > 0 {
			size = c.sizeOverride
		}
		same(name+" /query", "/query",
			QueryRequest{Values: values, Threshold: c.threshold, Size: c.sizeOverride},
			frame(t, &SketchedQuery{Seed: fixtureSeed, QueryRequest: QueryRequest{Threshold: c.threshold, Size: size}}, rec.Sig))
		same(name+" /query/topk", "/query/topk",
			TopKRequest{Values: values, K: 5, Size: c.sizeOverride},
			frame(t, &SketchedTopK{Seed: fixtureSeed, TopKRequest: TopKRequest{K: 5, Size: size}}, rec.Sig))
		batchRaw.Queries = append(batchRaw.Queries, QueryRequest{Values: values, Threshold: c.threshold, Size: c.sizeOverride})
		batchDoc.Queries = append(batchDoc.Queries, QueryRequest{Threshold: c.threshold, Size: size})
		batchSigs = append(batchSigs, rec.Sig)
	}
	batchRaw.Workers, batchDoc.Workers = 2, 2
	same("/query/batch", "/query/batch", batchRaw, frame(t, &batchDoc, batchSigs...))
	// k left at 0 is the default of 10 in both forms.
	rec := lshensemble.SketchStrings(h, "query", windowValues(0, 40))
	same("topk default k", "/query/topk", TopKRequest{Values: windowValues(0, 40)},
		frame(t, &SketchedTopK{Seed: fixtureSeed, TopKRequest: TopKRequest{Size: rec.Size}}, rec.Sig))
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rawFrame assembles a frame by hand: any document bytes, any declared
// length, any trailer.
func rawFrame(declared uint32, doc string, trailer []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, declared)
	b = append(b, doc...)
	return append(b, trailer...)
}

func sigBytes(sig lshensemble.Signature) []byte {
	var b []byte
	for _, v := range sig {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// sketchedRefusals is every way a framed request is malformed, per endpoint
// index into fuzzSketchedEndpoints; the 400 test walks it and the fuzz
// target starts from it.
func sketchedRefusals(numHash int, seed uint64) []struct {
	name string
	ep   int
	body []byte
} {
	sig := lshensemble.SketchStrings(lshensemble.NewHasher(numHash, seed), "q", []string{"a", "b", "c"}).Sig
	good := sigBytes(sig)
	beyond := append(lshensemble.Signature(nil), sig...)
	beyond[numHash/2] = minhash.MersennePrime + 1
	qdoc := func(s uint64, rest string) string { return fmt.Sprintf(`{"seed":%d%s}`, s, rest) }
	framed := func(doc string, trailer []byte) []byte { return rawFrame(uint32(len(doc)), doc, trailer) }
	twoRows := qdoc(seed, `,"queries":[{"size":3},{"size":3}]`)
	return []struct {
		name string
		ep   int
		body []byte
	}{
		{"empty body", 0, nil},
		{"prefix only", 0, []byte{9, 0}},
		{"truncated document length", 0, rawFrame(4096, qdoc(seed, `,"size":3`), good)},
		{"document is not JSON", 0, framed(`{"seed":`, good)},
		{"two documents", 0, framed(qdoc(seed, `,"size":3`)+`{}`, good)},
		{"unknown field", 0, framed(qdoc(seed, `,"size":3,"signature":"AAAA"`), good)},
		{"seed mismatch", 0, framed(qdoc(seed+1, `,"size":3`), good)},
		{"seed absent", 0, framed(`{"size":3}`, good)},
		{"short signature", 0, framed(qdoc(seed, `,"size":3`), good[:len(good)-8])},
		{"long signature", 0, framed(qdoc(seed, `,"size":3`), append(append([]byte(nil), good...), 0, 0, 0, 0, 0, 0, 0, 0))},
		{"ragged signature", 0, framed(qdoc(seed, `,"size":3`), good[:len(good)-3])},
		{"no signature", 0, framed(qdoc(seed, `,"size":3`), nil)},
		{"slot beyond 2^61-1", 0, framed(qdoc(seed, `,"size":3`), sigBytes(beyond))},
		{"size zero", 0, framed(qdoc(seed, ``), good)},
		{"size negative", 0, framed(qdoc(seed, `,"size":-4`), good)},
		{"values and a signature", 0, framed(qdoc(seed, `,"size":3,"values":["a","b","c"]`), good)},
		{"threshold out of range", 0, framed(qdoc(seed, `,"size":3,"threshold":2`), good)},
		{"topk size zero", 1, framed(qdoc(seed, `,"k":3`), good)},
		{"topk negative k", 1, framed(qdoc(seed, `,"k":-1,"size":3`), good)},
		{"topk values and a signature", 1, framed(qdoc(seed, `,"size":3,"values":["a"]`), good)},
		{"topk two signatures", 1, framed(qdoc(seed, `,"size":3`), append(append([]byte(nil), good...), good...))},
		{"batch without rows", 2, framed(qdoc(seed, `,"queries":[]`), nil)},
		{"batch trailer not divisible over rows", 2, framed(twoRows, append(append([]byte(nil), good...), good[:len(good)/2]...))},
		{"batch one signature for two rows", 2, framed(twoRows, good)},
		{"batch three signatures for two rows", 2, framed(twoRows, bytes.Repeat(good, 3))},
		{"batch row without size", 2, framed(qdoc(seed, `,"queries":[{"size":3},{}]`), bytes.Repeat(good, 2))},
		{"batch row with values", 2, framed(qdoc(seed, `,"queries":[{"size":3,"values":["a"]}]`), good)},
		{"batch seed mismatch", 2, framed(qdoc(seed+7, `,"queries":[{"size":3}]`), good)},
		{"query document on batch", 2, framed(qdoc(seed, `,"size":3`), good)},
		{"document then a stray ]", 0, framed(qdoc(seed, `,"size":3`)+`]`, good)},
		{"document then a stray }", 1, framed(qdoc(seed, `,"size":3`)+" }", good)},
		{"document then a word", 2, framed(qdoc(seed, `,"queries":[{"size":3}]`)+"nonsense", good)},
	}
}

var fuzzSketchedEndpoints = []string{"/query", "/query/topk", "/query/batch"}

// TestSketchedRefusals: every malformed frame is a 400 with an error
// envelope — no panic, no partially decoded request answered — and leaves the
// endpoint serving a well-formed one.
func TestSketchedRefusals(t *testing.T) {
	_, ts := testServer(t, "")
	seedWindows(t, ts.URL)
	for _, c := range sketchedRefusals(fixtureNumHash, fixtureSeed) {
		code, body := send(t, ts.URL+fuzzSketchedEndpoints[c.ep], SketchedContentType, c.body)
		if code != http.StatusBadRequest || !bytes.Contains(body, []byte(`"error"`)) {
			t.Errorf("%s: HTTP %d %s, want a 400 error envelope", c.name, code, body)
		}
	}
	// The batch row error names its row.
	doc := fmt.Sprintf(`{"seed":%d,"queries":[{"size":3},{}]}`, fixtureSeed)
	sig := sigBytes(lshensemble.SketchStrings(lshensemble.NewHasher(fixtureNumHash, fixtureSeed), "q", []string{"a"}).Sig)
	if _, body := send(t, ts.URL+"/query/batch", SketchedContentType, rawFrame(uint32(len(doc)), doc, bytes.Repeat(sig, 2))); !bytes.Contains(body, []byte("query 1:")) {
		t.Errorf("batch refusal does not name row 1: %s", body)
	}
	rec := lshensemble.SketchStrings(lshensemble.NewHasher(fixtureNumHash, fixtureSeed), "q", windowValues(0, 20))
	if code, body := send(t, ts.URL+"/query", SketchedContentType,
		frame(t, &SketchedQuery{Seed: fixtureSeed, QueryRequest: QueryRequest{Size: rec.Size}}, rec.Sig)); code != http.StatusOK {
		t.Fatalf("well-formed frame after the refusals: HTTP %d %s", code, body)
	}
}

// FuzzWireSketched drives the framed decoder, through the handlers of the
// three endpoints that share it, with hostile bodies: it never panics and
// never answers 5xx, and the index answers /stats afterwards.
func FuzzWireSketched(f *testing.F) {
	const numHash, seed = 32, 1
	opts := lshensemble.LiveOptions{
		Options:       lshensemble.Options{NumHash: numHash, RMax: 4, NumPartitions: 2},
		SealThreshold: 8,
	}
	idx, err := lshensemble.BuildLive(nil, opts)
	if err != nil {
		f.Fatal(err)
	}
	defer idx.Close()
	h := lshensemble.NewHasher(numHash, seed)
	s := NewWith(idx, h, seed, "", Options{})
	for i := 0; i < 12; i++ {
		if _, err := idx.Add(lshensemble.SketchStrings(h, fmt.Sprintf("k%d", i), windowValues(i, 6))); err != nil {
			f.Fatal(err)
		}
	}

	for _, c := range sketchedRefusals(numHash, seed) {
		f.Add(c.ep, c.body)
	}
	rec := lshensemble.SketchStrings(h, "q", windowValues(2, 6))
	f.Add(0, frame(f, &SketchedQuery{Seed: seed, QueryRequest: QueryRequest{Size: rec.Size, Threshold: 0.5}}, rec.Sig))
	f.Add(1, frame(f, &SketchedTopK{Seed: seed, TopKRequest: TopKRequest{Size: rec.Size, K: 3}}, rec.Sig))
	f.Add(2, frame(f, &SketchedBatch{Seed: seed, BatchRequest: BatchRequest{
		Queries: []QueryRequest{{Size: rec.Size}, {Size: 2, Threshold: 1}}}}, rec.Sig, rec.Sig))

	f.Fuzz(func(t *testing.T, which int, body []byte) {
		n := len(fuzzSketchedEndpoints)
		ep := fuzzSketchedEndpoints[((which%n)+n)%n]
		req := httptest.NewRequest(http.MethodPost, ep, bytes.NewReader(body))
		req.Header.Set("Content-Type", SketchedContentType)
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, req)
		if c := rr.Code; c != http.StatusOK && c != http.StatusBadRequest {
			t.Fatalf("%s answered %d for frame %q", ep, c, body)
		}
		srr := httptest.NewRecorder()
		s.ServeHTTP(srr, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if srr.Code != http.StatusOK {
			t.Fatalf("/stats broken after %s %q: %d", ep, body, srr.Code)
		}
	})
}

// TestSketchedObservability: framed requests are counted per entry point,
// /stats says the shard takes them, a repeated ranked query moves the
// result-cache hit counter, and its slow-query line says it was a hit.
func TestSketchedObservability(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	_, ts := testServerWith(t, Options{Logger: logger, SlowQuery: time.Nanosecond})
	seedWindows(t, ts.URL)
	h := lshensemble.NewHasher(fixtureNumHash, fixtureSeed)
	rec := lshensemble.SketchStrings(h, "query", windowValues(0, 20))

	var st StatsResponse
	get(t, ts.URL+"/stats", &st)
	if !st.Sketched || st.Seed != fixtureSeed || st.NumHash != fixtureNumHash {
		t.Fatalf("/stats does not advertise the framed form and its family: sketched=%v seed=%d num_hash=%d", st.Sketched, st.Seed, st.NumHash)
	}
	hits0 := st.Planner.ResultHits

	topk := frame(t, &SketchedTopK{Seed: fixtureSeed, TopKRequest: TopKRequest{K: 3, Size: rec.Size}}, rec.Sig)
	for i := 0; i < 2; i++ {
		if code, body := send(t, ts.URL+"/query/topk", SketchedContentType, topk); code != http.StatusOK {
			t.Fatalf("topk %d: HTTP %d %s", i, code, body)
		}
	}
	send(t, ts.URL+"/query", SketchedContentType,
		frame(t, &SketchedQuery{Seed: fixtureSeed, QueryRequest: QueryRequest{Size: rec.Size}}, rec.Sig))
	post(t, ts.URL+"/query", QueryRequest{Values: windowValues(0, 20)}, http.StatusOK, nil) // JSON form: not counted

	get(t, ts.URL+"/stats", &st)
	// The second top-k and the raw repeat of the sketched /query both hit.
	if got := st.Planner.ResultHits - hits0; got != 2 {
		t.Errorf("result_hits moved by %d, want 2 (the repeated top-k and the repeated query)", got)
	}
	text := scrape(t, ts.URL)
	for _, want := range []string{
		`lshensembled_sketched_requests_total{op="topk"} 2`,
		`lshensembled_sketched_requests_total{op="query"} 1`,
		`lshensembled_sketched_requests_total{op="batch"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	var topkLines []string
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if strings.Contains(line, "op=topk") {
			topkLines = append(topkLines, line)
		}
	}
	if len(topkLines) != 2 || !strings.Contains(topkLines[0], "result_cache_hit=false") || !strings.Contains(topkLines[1], "result_cache_hit=true") {
		t.Errorf("top-k slow-query lines do not carry the cache outcome (miss, then hit):\n%s", strings.Join(topkLines, "\n"))
	}
	if strings.Contains(topkLines[0], "segments_probed=") {
		t.Errorf("top-k slow-query line claims a per-segment breakdown it does not fill: %s", topkLines[0])
	}
}
