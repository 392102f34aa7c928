package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lshensemble"
	"lshensemble/internal/wire"
)

func testServer(t *testing.T, snapshotPath string) (*Server, *httptest.Server) {
	t.Helper()
	// Seed 1 matches the root-package fixture, whose band collisions at
	// the exact containment boundary are part of the proven baseline.
	const seed = 1
	opts := lshensemble.LiveOptions{
		Options:       lshensemble.Options{NumHash: 256, RMax: 8, NumPartitions: 4},
		SealThreshold: 8,
		MaxSegments:   2,
	}
	idx, err := lshensemble.BuildLive(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	s := NewWith(idx, lshensemble.NewHasher(256, seed), seed, snapshotPath, Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON request and decodes the JSON response into out,
// requiring the given status.
func post(t *testing.T, url string, body any, wantStatus int, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e wire.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func get(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// seedCorpus adds the canonical fixture: provinces ⊂ locations, partners
// with a partial-overlap vendor column.
func seedCorpus(t *testing.T, base string) {
	t.Helper()
	provinces := []string{"Ontario", "Quebec", "British Columbia", "Alberta",
		"Manitoba", "Saskatchewan", "Nova Scotia", "New Brunswick",
		"Newfoundland and Labrador", "Prince Edward Island"}
	locations := append(append([]string{}, provinces...),
		"Toronto", "Montreal", "Vancouver", "Calgary", "Edmonton",
		"Ottawa", "Winnipeg", "Halifax", "Victoria", "Regina")
	partners := []string{"Acme Mining", "Maple Software", "Northern Rail",
		"Pacific Fisheries", "Prairie Agritech", "Atlantic Shipping"}
	for key, vals := range map[string][]string{
		"grants:province": provinces,
		"geo:location":    locations,
		"grants:partner":  partners,
	} {
		var resp wire.AddResponse
		post(t, base+"/add", wire.AddRequest{Key: key, Values: vals}, http.StatusOK, &resp)
		if resp.Replaced || resp.Size != len(vals) {
			t.Fatalf("add %s: %+v", key, resp)
		}
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	_, ts := testServer(t, "")
	base := ts.URL
	get(t, base+"/healthz", nil)
	seedCorpus(t, base)

	// Containment query: provinces ⊂ locations, so both columns match at
	// t* = 1.0 and partners does not.
	var q wire.QueryResponse
	post(t, base+"/query", wire.QueryRequest{
		Values: []string{"Ontario", "Quebec", "British Columbia", "Alberta",
			"Manitoba", "Saskatchewan", "Nova Scotia", "New Brunswick",
			"Newfoundland and Labrador", "Prince Edward Island"},
		Threshold: 1.0,
	}, http.StatusOK, &q)
	if !containsKey(q.Matches, "geo:location") || !containsKey(q.Matches, "grants:province") {
		t.Fatalf("query missed a superset: %v", q.Matches)
	}
	if containsKey(q.Matches, "grants:partner") {
		t.Fatalf("unrelated column matched: %v", q.Matches)
	}

	// Upsert: re-adding a key reports replaced.
	var add wire.AddResponse
	post(t, base+"/add", wire.AddRequest{Key: "grants:partner", Values: []string{"Acme Mining", "Maple Software"}}, http.StatusOK, &add)
	if !add.Replaced {
		t.Fatalf("re-add not reported as replacement: %+v", add)
	}

	// Delete hides the key from subsequent queries.
	var del wire.DeleteResponse
	post(t, base+"/delete", wire.DeleteRequest{Key: "geo:location"}, http.StatusOK, &del)
	if !del.Deleted {
		t.Fatal("delete of existing key reported false")
	}
	post(t, base+"/query", wire.QueryRequest{Values: []string{"Ontario", "Quebec"}, Threshold: 1.0}, http.StatusOK, &q)
	if containsKey(q.Matches, "geo:location") {
		t.Fatalf("deleted key still matching: %v", q.Matches)
	}
	post(t, base+"/delete", wire.DeleteRequest{Key: "geo:location"}, http.StatusOK, &del)
	if del.Deleted {
		t.Fatal("double delete reported true")
	}

	// Batch: rows in query order, same answers as single queries.
	var batch wire.BatchResponse
	post(t, base+"/query/batch", wire.BatchRequest{Queries: []wire.QueryRequest{
		{Values: []string{"Ontario", "Quebec"}, Threshold: 1.0},
		{Values: []string{"Acme Mining", "Maple Software"}, Threshold: 0.9},
	}}, http.StatusOK, &batch)
	if len(batch.Rows) != 2 {
		t.Fatalf("%d rows", len(batch.Rows))
	}
	if !containsKey(batch.Rows[0].Matches, "grants:province") {
		t.Fatalf("batch row 0: %v", batch.Rows[0].Matches)
	}
	if !containsKey(batch.Rows[1].Matches, "grants:partner") {
		t.Fatalf("batch row 1: %v", batch.Rows[1].Matches)
	}

	// Stats reflect the mutations; compact purges the tombstones.
	var st StatsResponse
	get(t, base+"/stats", &st)
	if st.Domains != 2 || st.NumHash != 256 || st.Seed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	post(t, base+"/compact", nil, http.StatusOK, &st)
	if st.Tombstones != 0 || st.Buffered != 0 {
		t.Fatalf("compact left residue: %+v", st)
	}

	// Input validation.
	post(t, base+"/add", wire.AddRequest{Key: "", Values: []string{"x"}}, http.StatusBadRequest, nil)
	post(t, base+"/add", wire.AddRequest{Key: "k", Values: nil}, http.StatusBadRequest, nil)
	post(t, base+"/query", wire.QueryRequest{Values: []string{"x"}, Threshold: 3}, http.StatusBadRequest, nil)
	post(t, base+"/query/batch", wire.BatchRequest{}, http.StatusBadRequest, nil)
	post(t, base+"/save", nil, http.StatusNotFound, nil) // no -snapshot configured
}

func TestDaemonSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.snap")
	s, ts := testServer(t, path)
	seedCorpus(t, ts.URL)
	post(t, ts.URL+"/delete", wire.DeleteRequest{Key: "grants:partner"}, http.StatusOK, nil)

	var saved SaveResponse
	post(t, ts.URL+"/save", nil, http.StatusOK, &saved)
	if saved.Path != path || saved.Bytes == 0 {
		t.Fatalf("save: %+v", saved)
	}

	// Warm restart: same seed loads and answers identically.
	loaded, err := LoadSnapshot(path, s.Seed(), lshensemble.LiveOptions{
		Options: lshensemble.Options{NumHash: 256, RMax: 8, NumPartitions: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != 2 {
		t.Fatalf("reloaded Len = %d, want 2", loaded.Len())
	}
	ts2 := httptest.NewServer(NewWith(loaded, s.Hasher(), s.Seed(), "", Options{}))
	defer ts2.Close()
	var q wire.QueryResponse
	post(t, ts2.URL+"/query", wire.QueryRequest{Values: []string{"Ontario", "Quebec"}, Threshold: 1.0}, http.StatusOK, &q)
	if !containsKey(q.Matches, "grants:province") || containsKey(q.Matches, "grants:partner") {
		t.Fatalf("reloaded daemon answers wrong: %v", q.Matches)
	}

	// A mismatched seed must be rejected, not silently return garbage.
	if _, err := LoadSnapshot(path, s.Seed()+1, lshensemble.LiveOptions{}); err == nil {
		t.Fatal("seed mismatch accepted")
	}
}

func TestDaemonConcurrentTraffic(t *testing.T) {
	_, ts := testServer(t, "")
	base := ts.URL
	seedCorpus(t, base)
	// Mixed writers and readers through the real HTTP stack; the tiny
	// SealThreshold (8) keeps the compactor busy. Run with -race.
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("w%d:col%d", w, i)
				vals := []string{fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1), fmt.Sprintf("v%d", w)}
				b, _ := json.Marshal(wire.AddRequest{Key: key, Values: vals})
				resp, err := http.Post(base+"/add", "application/json", bytes.NewReader(b))
				if err != nil {
					done <- err
					return
				}
				resp.Body.Close()
				if i%5 == 0 {
					b, _ := json.Marshal(wire.DeleteRequest{Key: key})
					resp, err := http.Post(base+"/delete", "application/json", bytes.NewReader(b))
					if err != nil {
						done <- err
						return
					}
					resp.Body.Close()
				}
			}
			done <- nil
		}(w)
	}
	for r := 0; r < 4; r++ {
		go func() {
			for i := 0; i < 25; i++ {
				b, _ := json.Marshal(wire.QueryRequest{Values: []string{"Ontario", "Quebec"}, Threshold: 1.0})
				resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(b))
				if err != nil {
					done <- err
					return
				}
				var q wire.QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&q)
				resp.Body.Close()
				if err != nil {
					done <- err
					return
				}
				if !containsKey(q.Matches, "grants:province") {
					done <- fmt.Errorf("query lost grants:province mid-traffic: %v", q.Matches)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var st StatsResponse
	get(t, base+"/stats", &st)
	// 3 fixture columns plus, per writer, 25 added keys of which the 5
	// multiples of 5 were deleted again.
	if want := 3 + 4*20; st.Domains != want {
		t.Fatalf("Domains = %d, want %d", st.Domains, want)
	}
}

func TestDaemonTopKAndPlannerStats(t *testing.T) {
	_, ts := testServer(t, "")
	base := ts.URL
	seedCorpus(t, base)

	// Top-k: the provinces query ranks its superset columns first, with the
	// exact-superset province column at estimated containment 1.
	provinces := []string{"Ontario", "Quebec", "British Columbia", "Alberta",
		"Manitoba", "Saskatchewan", "Nova Scotia", "New Brunswick",
		"Newfoundland and Labrador", "Prince Edward Island"}
	var tk wire.TopKResponse
	post(t, base+"/query/topk", wire.TopKRequest{Values: provinces, K: 2}, http.StatusOK, &tk)
	if tk.Count != 2 || len(tk.Matches) != 2 {
		t.Fatalf("topk: %+v", tk)
	}
	// Both superset columns fully contain the query (est 1.0); the
	// unrelated partner column must not make the cut.
	for _, m := range tk.Matches {
		if m.Key != "grants:province" && m.Key != "geo:location" {
			t.Fatalf("topk ranked unrelated column: %+v", tk.Matches)
		}
	}
	if tk.Matches[0].EstContainment < tk.Matches[1].EstContainment {
		t.Fatalf("topk not ranked: %+v", tk.Matches)
	}
	// Default k kicks in when omitted; the corpus only has 3 columns.
	post(t, base+"/query/topk", wire.TopKRequest{Values: provinces}, http.StatusOK, &tk)
	if tk.Count > 3 {
		t.Fatalf("default-k topk returned %d matches", tk.Count)
	}

	// Compact seals the buffer, so /stats must expose the segment's planner
	// metadata and the queries above must have moved the planner counters.
	var st StatsResponse
	post(t, base+"/compact", nil, http.StatusOK, &st)
	if len(st.SegmentDetail) == 0 {
		t.Fatalf("no segment_detail after compact: %+v", st)
	}
	d := st.SegmentDetail[0]
	if d.Entries == 0 || d.MinSize <= 0 || d.MaxSize < d.MinSize || d.MaxBound < d.MaxSize || d.BloomBytes == 0 {
		t.Fatalf("implausible segment detail: %+v", d)
	}
	var q wire.QueryResponse
	post(t, base+"/query", wire.QueryRequest{Values: provinces, Threshold: 1.0}, http.StatusOK, &q)
	post(t, base+"/query", wire.QueryRequest{Values: provinces, Threshold: 1.0}, http.StatusOK, &q) // second hit caches
	get(t, base+"/stats", &st)
	p := st.Planner
	if p.SegmentsProbed+p.SegmentsRangePruned+p.SegmentsBloomPruned == 0 {
		t.Fatalf("planner made no segment decisions: %+v", p)
	}
	if p.ResultHits == 0 {
		t.Fatalf("repeated query did not hit the result cache: %+v", p)
	}

	// Input validation.
	post(t, base+"/query/topk", wire.TopKRequest{Values: nil}, http.StatusBadRequest, nil)
	post(t, base+"/query/topk", wire.TopKRequest{Values: []string{"x"}, K: -1}, http.StatusBadRequest, nil)
	// A negative |Q| is refused, not replaced by the distinct count.
	post(t, base+"/query", wire.QueryRequest{Values: provinces, Size: -5}, http.StatusBadRequest, nil)
	post(t, base+"/query/topk", wire.TopKRequest{Values: provinces, Size: -5}, http.StatusBadRequest, nil)
	post(t, base+"/query/batch", wire.BatchRequest{Queries: []wire.QueryRequest{{Values: provinces}, {Values: provinces, Size: -1}}}, http.StatusBadRequest, nil)
}

func containsKey(keys []string, k string) bool {
	for _, key := range keys {
		if key == k {
			return true
		}
	}
	return false
}

// TestTrailingDataRefused: a JSON body is one value and then only whitespace.
// Anything after the value — a word, a stray closing bracket or brace, a
// second value — is a 400 on every endpoint that decodes a body, and an /add
// refused for it adds nothing.
func TestTrailingDataRefused(t *testing.T) {
	_, ts := testServer(t, "")
	seedCorpus(t, ts.URL)
	bodies := map[string]string{
		"/add":         `{"key":"trailer","values":["Ontario"]}`,
		"/delete":      `{"key":"absent"}`,
		"/query":       `{"values":["Ontario"]}`,
		"/query/topk":  `{"values":["Ontario"],"k":2}`,
		"/query/batch": `{"queries":[{"values":["Ontario"]}]}`,
	}
	for path, body := range bodies {
		for _, trailer := range []string{" trailing garbage", "nonsense", "]", "}", ` {}`} {
			code, answer := send(t, ts.URL+path, "application/json", []byte(body+trailer))
			if code != http.StatusBadRequest || !bytes.Contains(answer, []byte("after the JSON value")) {
				t.Errorf("%s %q: HTTP %d %s, want a 400 naming the trailing data", path, body+trailer, code, answer)
			}
		}
	}
	var st StatsResponse
	get(t, ts.URL+"/stats", &st)
	if st.Domains != 3 {
		t.Fatalf("refused /add bodies changed the index: %d domains, want 3", st.Domains)
	}
	for path, body := range bodies {
		if code, answer := send(t, ts.URL+path, "application/json", []byte(body+" \n\t")); code != http.StatusOK {
			t.Errorf("%s with trailing whitespace: HTTP %d %s", path, code, answer)
		}
	}
}

// TestBatchWorkersBounded: "workers" arrives from outside with the rows, so
// the index's sink caps it at GOMAXPROCS (a request for 100 000 workers used
// to start that many goroutines per sealed segment, on every shard the router
// forwarded it to); zero and negative values keep meaning "the default".
func TestBatchWorkersBounded(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	h := lshensemble.NewHasher(64, 1)
	for _, c := range []struct{ asked, want int }{
		{100000, procs}, {procs + 1, procs}, {procs, procs}, {1, 1}, {0, 0}, {-7, -7},
	} {
		used, answered := 0, false
		handler := wire.Handler(wire.OpBatch, func(wire.Op, int) (*lshensemble.Hasher, error) { return h, nil },
			func(_ context.Context, req *wire.Request) (any, error) {
				used, answered = batchWorkers(req.Workers), true
				return &wire.BatchResponse{}, nil
			})
		body := fmt.Sprintf(`{"queries":[{"values":["a","b"]}],"workers":%d}`, c.asked)
		rr := httptest.NewRecorder()
		handler(rr, httptest.NewRequest(http.MethodPost, "/query/batch", strings.NewReader(body)))
		if !answered {
			t.Fatalf("workers %d: HTTP %d %s", c.asked, rr.Code, rr.Body)
		}
		if used != c.want {
			t.Errorf("workers %d resolved to %d, want %d", c.asked, used, c.want)
		}
	}
}
