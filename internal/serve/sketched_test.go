package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"lshensemble"
	"lshensemble/internal/minhash"
	"lshensemble/internal/wire"
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
		post(t, base+"/add", wire.AddRequest{Key: fmt.Sprintf("w%03d", i), Values: windowValues(i*4, 20+20*(i%3))}, http.StatusOK, nil)
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

// TestSketchedEqualsRaw: on every query shape a record pre-sketched with
// SketchStrings gets an answer frame that decodes to exactly the rows and
// scores of the JSON answer the raw-values request gets — with and without a
// size override, with the threshold left to its default, and for a batch of
// mixed sizes.
func TestSketchedEqualsRaw(t *testing.T) {
	s, ts := testServer(t, "")
	t.Cleanup(s.CloseRecords)
	seedWindows(t, ts.URL)
	h := lshensemble.NewHasher(fixtureNumHash, fixtureSeed)
	conn, br := dialRecords(t, ts.URL)

	same := func(name string, o wire.Op, raw any, record []byte) {
		t.Helper()
		rawCode, rawBody := send(t, ts.URL+o.Path(), "application/json", mustMarshal(t, raw))
		code, body := exchange(t, conn, br, o, "", time.Minute, record)
		if rawCode != http.StatusOK || code != http.StatusOK {
			t.Fatalf("%s: raw HTTP %d (%s), record %d (%s)", name, rawCode, rawBody, code, body)
		}
		if !bytes.Contains(rawBody, []byte(`"w0`)) {
			t.Fatalf("%s: answer matches nothing, the comparison proves nothing: %s", name, rawBody)
		}
		rows, want, got := 1, any(new(wire.QueryResponse)), any(new(wire.QueryResponse))
		switch r := raw.(type) {
		case TopKRequest:
			want, got = new(wire.TopKResponse), new(wire.TopKResponse)
		case BatchRequest:
			rows, want, got = len(r.Queries), new(wire.BatchResponse), new(wire.BatchResponse)
		}
		if err := json.Unmarshal(rawBody, want); err != nil {
			t.Fatal(err)
		}
		if err := wire.DecodeAnswer(body, rows, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: record answer decodes to\n%+v\nJSON answer\n%+v", name, got, want)
		}
	}

	var batchRaw wire.BatchRequest
	var batch []lshensemble.BatchQuery
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
		q := lshensemble.BatchQuery{Sig: rec.Sig, Size: size, Threshold: c.threshold}
		same(name+" /query", wire.OpQuery,
			wire.QueryRequest{Values: values, Threshold: c.threshold, Size: c.sizeOverride},
			wire.AppendQueryRecord(nil, fixtureSeed, q))
		same(name+" /query/topk", wire.OpTopK,
			wire.TopKRequest{Values: values, K: 5, Size: c.sizeOverride},
			wire.AppendTopKRecord(nil, fixtureSeed, 5, size, rec.Sig))
		batchRaw.Queries = append(batchRaw.Queries, wire.QueryRequest{Values: values, Threshold: c.threshold, Size: c.sizeOverride})
		batch = append(batch, q)
	}
	batchRaw.Workers = 2
	same("/query/batch", wire.OpBatch, batchRaw, wire.AppendBatchRecord(nil, fixtureSeed, 2, batch))
	// k left at 0 is the default of 10 in both forms.
	rec := lshensemble.SketchStrings(h, "query", windowValues(0, 40))
	same("topk default k", wire.OpTopK, wire.TopKRequest{Values: windowValues(0, 40)},
		wire.AppendTopKRecord(nil, fixtureSeed, 0, rec.Size, rec.Sig))
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// appendWord and appendSig append one field of a record body behind its
// length: a word, or a signature.
func appendWord(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(dst, 8), v)
}

func appendSig(dst []byte, sig lshensemble.Signature) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(8*len(sig)))
	for _, v := range sig {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// sketchedRefusals is every way a query record's body is malformed, per
// query Op; the 400 test walks it and the fuzz target starts from it.
func sketchedRefusals(numHash int, seed uint64) []struct {
	name string
	op   wire.Op
	body []byte
} {
	sig := lshensemble.SketchStrings(lshensemble.NewHasher(numHash, seed), "q", []string{"a", "b", "c"}).Sig
	beyond := append(lshensemble.Signature(nil), sig...)
	beyond[numHash/2] = minhash.MersennePrime + 1
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	w := func(v int64) []byte { return appendWord(nil, uint64(v)) }
	f64 := func(x float64) []byte { return appendWord(nil, math.Float64bits(x)) }
	four := []byte{4, 0, 0, 0, 1, 0, 0, 0} // a field of four bytes where a word goes
	good := appendSig(nil, sig)
	s := appendWord(nil, seed)
	head := cat(s, f64(0.5), w(3)) // a /query record up to its signature
	batchHead := cat(s, w(2))
	row := cat(f64(0.5), w(3), good)
	return []struct {
		name string
		op   wire.Op
		body []byte
	}{
		{"empty body", wire.OpQuery, nil},
		{"a length cut short", wire.OpQuery, []byte{9, 0}},
		{"seed field past the body", wire.OpQuery, cat(binary.LittleEndian.AppendUint32(nil, 4096), s[4:], good)},
		{"seed of four bytes", wire.OpQuery, cat(four, f64(0.5), w(3), good)},
		{"seed mismatch", wire.OpQuery, cat(appendWord(nil, seed+1), f64(0.5), w(3), good)},
		{"seed absent", wire.OpQuery, cat(f64(0.5), w(3), good)},
		{"short signature", wire.OpQuery, cat(head, appendSig(nil, sig[:numHash-1]))},
		{"long signature", wire.OpQuery, cat(head, appendSig(nil, append(sig[:numHash:numHash], 0)))},
		{"ragged signature", wire.OpQuery, cat(head, binary.LittleEndian.AppendUint32(nil, uint32(len(good)-7)), good[4:len(good)-3])},
		{"no signature", wire.OpQuery, head},
		{"empty signature", wire.OpQuery, cat(head, appendSig(nil, nil))},
		{"slot beyond 2^61-1", wire.OpQuery, cat(head, appendSig(nil, beyond))},
		{"size zero", wire.OpQuery, cat(s, f64(0.5), w(0), good)},
		{"size negative", wire.OpQuery, cat(s, f64(0.5), w(-4), good)},
		{"threshold out of range", wire.OpQuery, cat(s, f64(2), w(3), good)},
		{"threshold negative", wire.OpQuery, cat(s, f64(-0.25), w(3), good)},
		{"threshold NaN", wire.OpQuery, cat(s, f64(math.NaN()), w(3), good)},
		{"threshold +Inf", wire.OpQuery, cat(s, f64(math.Inf(1)), w(3), good)},
		{"threshold of four bytes", wire.OpQuery, cat(s, four, w(3), good)},
		{"a byte after the record", wire.OpQuery, cat(head, good, []byte{0})},
		{"a field after the record", wire.OpQuery, cat(head, good, w(1))},
		{"topk size zero", wire.OpTopK, cat(s, w(3), w(0), good)},
		{"topk negative k", wire.OpTopK, cat(s, w(-1), w(3), good)},
		{"topk two signatures", wire.OpTopK, cat(s, w(3), w(3), good, good)},
		{"topk seed mismatch", wire.OpTopK, cat(appendWord(nil, seed+3), w(3), w(3), good)},
		{"batch without rows", wire.OpBatch, batchHead},
		{"batch row without its signature", wire.OpBatch, cat(batchHead, row, f64(0.5), w(3))},
		{"batch row without size", wire.OpBatch, cat(batchHead, row, f64(0.5), w(0), good)},
		{"batch row threshold NaN", wire.OpBatch, cat(batchHead, row, f64(math.NaN()), w(3), good)},
		{"batch row threshold +Inf", wire.OpBatch, cat(batchHead, f64(math.Inf(1)), w(3), good)},
		{"batch row short signature", wire.OpBatch, cat(batchHead, row, f64(0.5), w(3), appendSig(nil, sig[:1]))},
		{"batch seed mismatch", wire.OpBatch, cat(appendWord(nil, seed+7), w(2), row)},
		{"batch then a stray byte", wire.OpBatch, cat(batchHead, row, []byte{']'})},
		{"batch workers of four bytes", wire.OpBatch, cat(s, four, row)},
		{"query record on batch", wire.OpBatch, cat(head, good)},
		{"batch record on query", wire.OpQuery, cat(batchHead, row)},
		{"delete record on query", wire.OpQuery, wire.AppendDeleteRecord(nil, "q")},
	}
}

// TestSketchedRefusals: every malformed query record is a 400 error record
// with an error envelope — no panic, no partially decoded request answered —
// a threshold that is NaN or infinite, alone or in a batch row, is refused
// in the range's words, and the connection goes on to serve a well-formed
// record.
func TestSketchedRefusals(t *testing.T) {
	s, ts := testServer(t, "")
	t.Cleanup(s.CloseRecords)
	seedWindows(t, ts.URL)
	conn, br := dialRecords(t, ts.URL)
	for _, c := range sketchedRefusals(fixtureNumHash, fixtureSeed) {
		code, body := exchange(t, conn, br, c.op, "", time.Minute, c.body)
		if code != http.StatusBadRequest || !bytes.Contains(body, []byte(`"error"`)) {
			t.Errorf("%s: %d %s, want a 400 error envelope", c.name, code, body)
		}
		if strings.Contains(c.name, "threshold NaN") || strings.Contains(c.name, "threshold +Inf") {
			if !bytes.Contains(body, []byte("out of range (0, 1]")) {
				t.Errorf("%s: %s, want the threshold's range named", c.name, body)
			}
		}
	}
	// The batch row error names its row.
	sig := lshensemble.SketchStrings(lshensemble.NewHasher(fixtureNumHash, fixtureSeed), "q", []string{"a"}).Sig
	rows := []lshensemble.BatchQuery{{Sig: sig, Size: 3}, {Sig: sig}}
	if _, body := exchange(t, conn, br, wire.OpBatch, "", time.Minute, wire.AppendBatchRecord(nil, fixtureSeed, 0, rows)); !bytes.Contains(body, []byte("query 1:")) {
		t.Errorf("batch refusal does not name row 1: %s", body)
	}
	rec := lshensemble.SketchStrings(lshensemble.NewHasher(fixtureNumHash, fixtureSeed), "q", windowValues(0, 20))
	if code, body := exchange(t, conn, br, wire.OpQuery, "", time.Minute,
		wire.AppendQueryRecord(nil, fixtureSeed, lshensemble.BatchQuery{Sig: rec.Sig, Size: rec.Size})); code != http.StatusOK {
		t.Fatalf("well-formed record after the refusals: %d %s", code, body)
	}
}

// FuzzWireSketched drives the record decoder, through serveRecord for the
// three query shapes that share it, with hostile bodies: it never panics,
// answers each with a 200 or a 400 answer record, and the index answers
// /stats afterwards.
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
		f.Add(int(c.op), c.body)
	}
	rec := lshensemble.SketchStrings(h, "q", windowValues(2, 6))
	q := lshensemble.BatchQuery{Sig: rec.Sig, Size: rec.Size, Threshold: 0.5}
	f.Add(int(wire.OpQuery), wire.AppendQueryRecord(nil, seed, q))
	f.Add(int(wire.OpTopK), wire.AppendTopKRecord(nil, seed, 3, rec.Size, rec.Sig))
	f.Add(int(wire.OpBatch), wire.AppendBatchRecord(nil, seed, 0, []lshensemble.BatchQuery{q, {Sig: rec.Sig, Size: 2, Threshold: 1}}))

	f.Fuzz(func(t *testing.T, which int, body []byte) {
		o := wire.Op((which%int(numOps) + int(numOps)) % int(numOps))
		out := s.serveRecord(&wire.Record{Op: o, Timeout: time.Minute, Body: body}, time.Now().Add(time.Minute), nil)
		status, answer, err := wire.ReadAnswerRecord(bufio.NewReader(bytes.NewReader(out)), nil)
		if err != nil || status != http.StatusOK && status != http.StatusBadRequest {
			t.Fatalf("%s answered %d %q (%v) for record %q", o, status, answer, err, body)
		}
		srr := httptest.NewRecorder()
		s.ServeHTTP(srr, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if srr.Code != http.StatusOK {
			t.Fatalf("/stats broken after %s %q: %d", o, body, srr.Code)
		}
	})
}

// TestSketchedObservability: query records are counted per entry point,
// /stats says the shard takes them, a repeated ranked query moves the
// result-cache hit counter, and its slow-query line says it was a hit.
func TestSketchedObservability(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	s, ts := testServerWith(t, Options{Logger: logger, SlowQuery: time.Nanosecond})
	t.Cleanup(s.CloseRecords)
	seedWindows(t, ts.URL)
	conn, br := dialRecords(t, ts.URL)
	h := lshensemble.NewHasher(fixtureNumHash, fixtureSeed)
	rec := lshensemble.SketchStrings(h, "query", windowValues(0, 20))

	var st StatsResponse
	get(t, ts.URL+"/stats", &st)
	if !st.Records || st.Seed != fixtureSeed || st.NumHash != fixtureNumHash {
		t.Fatalf("/stats does not advertise records and its family: records=%v seed=%d num_hash=%d", st.Records, st.Seed, st.NumHash)
	}
	hits0 := st.Planner.ResultHits

	topk := wire.AppendTopKRecord(nil, fixtureSeed, 3, rec.Size, rec.Sig)
	for i := 0; i < 2; i++ {
		if code, body := exchange(t, conn, br, wire.OpTopK, "", time.Minute, topk); code != http.StatusOK {
			t.Fatalf("topk %d: %d %s", i, code, body)
		}
	}
	exchange(t, conn, br, wire.OpQuery, "", time.Minute, wire.AppendQueryRecord(nil, fixtureSeed, lshensemble.BatchQuery{Sig: rec.Sig, Size: rec.Size}))
	post(t, ts.URL+"/query", wire.QueryRequest{Values: windowValues(0, 20)}, http.StatusOK, nil) // JSON form: not counted

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
