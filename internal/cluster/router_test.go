package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"lshensemble"
	"lshensemble/internal/serve"
	"lshensemble/internal/wire"
)

// The e2e fixtures use a uniform domain cardinality on purpose: the
// ensemble's candidate predicate depends on each partition's upper size
// bound (Eq. 7 threshold conversion feeds the (b, r) tuner), so with every
// domain the same size the predicate is a pure function of the two
// signatures — identical on every shard and on a single-node index. That
// turns "sharded union == single node" from an approximation into an exact,
// deterministic equality the tests can assert.
const (
	testSeed       = 99
	testNumHash    = 64
	testDomainSize = 30
)

func testLiveOpts() lshensemble.LiveOptions {
	return lshensemble.LiveOptions{
		Options: lshensemble.Options{
			NumHash:       testNumHash,
			RMax:          4,
			NumPartitions: 4,
		},
		SealThreshold: 1 << 20, // seal only on explicit Flush
	}
}

// windowValues returns a size-testDomainSize window into a shared value
// universe, so nearby domains overlap heavily and far ones not at all.
func windowValues(i int) []string {
	vals := make([]string, testDomainSize)
	for j := range vals {
		vals[j] = fmt.Sprintf("w%04d", i+j)
	}
	return vals
}

func domainKey(i int) string { return fmt.Sprintf("d%03d", i) }

// testShard is one in-process lshensembled: a real serve.Server behind
// httptest.
type testShard struct {
	ts  *httptest.Server
	srv *serve.Server
}

// kill stops the shard as a crash would: the listener and every connection,
// the record connections too, which httptest's Close leaves serving.
func (s *testShard) kill() {
	s.ts.Close()
	s.srv.CloseRecords()
}

func startShards(t *testing.T, n int) ([]string, []*testShard) {
	t.Helper()
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = testSeed
	}
	return startShardsAdvertising(t, seeds)
}

// startShardsAdvertising starts one shard per entry, each advertising that
// seed on /stats (and checking records against it) while sketching JSON
// requests with the testSeed family all the same.
func startShardsAdvertising(t *testing.T, seeds []uint64) ([]string, []*testShard) {
	t.Helper()
	n := len(seeds)
	urls := make([]string, n)
	shards := make([]*testShard, n)
	for i := 0; i < n; i++ {
		idx, err := lshensemble.BuildLive(nil, testLiveOpts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Close)
		srv := serve.NewWith(idx, lshensemble.NewHasher(testNumHash, testSeed), seeds[i], "", serve.Options{})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		shards[i] = &testShard{ts: ts, srv: srv}
	}
	return urls, shards
}

func startRouter(t *testing.T, urls []string, opts Options) (*Router, *httptest.Server) {
	t.Helper()
	r, err := NewRouter(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)
	return r, ts
}

// postJSON posts body and decodes the response into out, returning the
// status code.
func postJSON(t *testing.T, url string, body, out any) int {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// addVia adds n windowed domains through the router, asserting every write
// fully replicates.
func addVia(t *testing.T, routerURL string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var resp RouterAddResponse
		if code := postJSON(t, routerURL+"/add", wire.AddRequest{Key: domainKey(i), Values: windowValues(i)}, &resp); code != http.StatusOK {
			t.Fatalf("add %d: HTTP %d", i, code)
		}
		if resp.Partial || len(resp.Failed) > 0 {
			t.Fatalf("add %d partial with healthy shards: %+v", i, resp)
		}
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouterMergeMatchesSingleNode is the determinism acceptance test: a
// 2-shard fleet behind the router answers /query, /query/topk and
// /query/batch exactly like one single-node index over the union of the
// corpus, every query sketched once at the router.
func TestRouterMergeMatchesSingleNode(t *testing.T) {
	t.Run("sketched", func(t *testing.T) {
		urls, shards := startShards(t, 2)
		router, rts := startRouter(t, urls, Options{})
		router.CheckHealth() // the first health tick learns the families
		checkMergeMatchesSingleNode(t, urls, shards, router, rts)
		for _, u := range urls {
			if metric(t, scrapeText(t, u), `lshensembled_sketched_requests_total{op="query"}`) == 0 {
				t.Fatalf("no query went out sketched to %s", u)
			}
		}
	})
}

func checkMergeMatchesSingleNode(t *testing.T, urls []string, shards []*testShard, router *Router, rts *httptest.Server) {
	const n = 120
	addVia(t, rts.URL, n)

	// Routing correctness: keys land exactly on their ring owner, corpus
	// fully covered, both shards non-empty.
	ring := router.ring.Load()
	total := 0
	for i, sh := range shards {
		got := sh.srv.Index().Len()
		if got == 0 {
			t.Fatalf("shard %d holds no keys", i)
		}
		total += got
	}
	if total != n {
		t.Fatalf("fleet holds %d keys, want %d (replication 1)", total, n)
	}
	hasher := lshensemble.NewHasher(testNumHash, testSeed)
	for i := 0; i < n; i++ {
		owner := ring.Primary(domainKey(i))
		for si, sh := range shards {
			rec := lshensemble.SketchStrings(hasher, domainKey(i), windowValues(i))
			held := containsKey(sh.srv.Index().Query(rec.Sig, rec.Size, 1.0), domainKey(i))
			if want := urls[si] == owner; held != want {
				t.Fatalf("key %s on shard %s: held=%v, ring owner %s", domainKey(i), urls[si], held, owner)
			}
		}
	}

	// The reference: one index holding every record, same hash family.
	single, err := lshensemble.BuildLive(nil, testLiveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for i := 0; i < n; i++ {
		rec := lshensemble.SketchStrings(hasher, domainKey(i), windowValues(i))
		if _, err := single.Add(rec); err != nil {
			t.Fatal(err)
		}
	}

	for probe := 0; probe < n+20; probe += 7 {
		values := windowValues(probe)
		rec := lshensemble.SketchStrings(hasher, "query", values)
		for _, threshold := range []float64{0.3, 0.5, 1.0} {
			want := single.Query(rec.Sig, rec.Size, threshold)
			sort.Strings(want)
			var got RouterQueryResponse
			if code := postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: values, Threshold: threshold}, &got); code != http.StatusOK {
				t.Fatalf("query probe %d: HTTP %d", probe, code)
			}
			if got.Partial {
				t.Fatalf("query probe %d partial with healthy shards", probe)
			}
			if !sameStrings(got.Matches, want) {
				t.Fatalf("probe %d t=%v: router %v != single-node %v", probe, threshold, got.Matches, want)
			}
		}

		// Top-k with k past the candidate count, so the full ranking must
		// line up (score-descending, key-ascending on ties at every rank).
		wantTop := single.QueryTopK(rec.Sig, rec.Size, 50)
		var gotTop RouterTopKResponse
		if code := postJSON(t, rts.URL+"/query/topk", wire.TopKRequest{Values: values, K: 50}, &gotTop); code != http.StatusOK {
			t.Fatalf("topk probe %d: HTTP %d", probe, code)
		}
		if len(gotTop.Matches) != len(wantTop) {
			t.Fatalf("probe %d: topk %d results, single-node %d", probe, len(gotTop.Matches), len(wantTop))
		}
		wantByKey := make(map[string]float64, len(wantTop))
		for _, m := range wantTop {
			wantByKey[m.Key] = m.EstContainment
		}
		for rank, m := range gotTop.Matches {
			if est, ok := wantByKey[m.Key]; !ok || est != m.EstContainment {
				t.Fatalf("probe %d rank %d: %+v not in single-node ranking", probe, rank, m)
			}
			if rank > 0 && m.EstContainment > gotTop.Matches[rank-1].EstContainment {
				t.Fatalf("probe %d: merged ranking out of order at %d", probe, rank)
			}
		}
	}

	// Batch: one request, every row equal to the single-node row.
	var batchReq wire.BatchRequest
	for probe := 0; probe < n; probe += 11 {
		batchReq.Queries = append(batchReq.Queries, wire.QueryRequest{Values: windowValues(probe), Threshold: 0.5})
	}
	var queries []lshensemble.BatchQuery
	for probe := 0; probe < n; probe += 11 {
		rec := lshensemble.SketchStrings(hasher, "query", windowValues(probe))
		queries = append(queries, lshensemble.BatchQuery{Sig: rec.Sig, Size: rec.Size, Threshold: 0.5})
	}
	wantRows := single.QueryBatch(queries, 2)
	var gotBatch RouterBatchResponse
	if code := postJSON(t, rts.URL+"/query/batch", batchReq, &gotBatch); code != http.StatusOK {
		t.Fatalf("batch: HTTP %d", code)
	}
	if gotBatch.Partial || len(gotBatch.Rows) != len(wantRows) {
		t.Fatalf("batch shape: partial=%v rows=%d want %d", gotBatch.Partial, len(gotBatch.Rows), len(wantRows))
	}
	for i, row := range wantRows {
		sort.Strings(row)
		if !sameStrings(gotBatch.Rows[i].Matches, row) {
			t.Fatalf("batch row %d: router %v != single-node %v", i, gotBatch.Rows[i].Matches, row)
		}
	}
}

func containsKey(keys []string, key string) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}

// TestRouterPartialOnShardDeath is the degradation acceptance test: killing
// one of three shards mid-traffic turns query answers partial — never a
// 5xx — and the health checker then demotes the dead shard so answers go
// clean again.
func TestRouterPartialOnShardDeath(t *testing.T) {
	const n = 90
	urls, shards := startShards(t, 3)
	router, rts := startRouter(t, urls, Options{HealthFailures: 2})
	addVia(t, rts.URL, n)

	dead := shards[1]
	dead.kill() // mid-traffic; the router has no idea yet

	// Survivors' union is what the degraded fleet can still answer.
	values := windowValues(5)
	hasher := lshensemble.NewHasher(testNumHash, testSeed)
	rec := lshensemble.SketchStrings(hasher, "query", values)
	wantSet := map[string]struct{}{}
	for i, sh := range shards {
		if i == 1 {
			continue
		}
		for _, k := range sh.srv.Index().Query(rec.Sig, rec.Size, 0.5) {
			wantSet[k] = struct{}{}
		}
	}
	want := make([]string, 0, len(wantSet))
	for k := range wantSet {
		want = append(want, k)
	}
	sort.Strings(want)

	for _, path := range []string{"/query", "/query/topk", "/query/batch"} {
		var body any
		switch path {
		case "/query":
			body = wire.QueryRequest{Values: values, Threshold: 0.5}
		case "/query/topk":
			body = wire.TopKRequest{Values: values, K: 10}
		case "/query/batch":
			body = wire.BatchRequest{Queries: []wire.QueryRequest{{Values: values, Threshold: 0.5}}}
		}
		var meta struct {
			Partial bool     `json:"partial"`
			Failed  []string `json:"failed"`
		}
		if code := postJSON(t, rts.URL+path, body, &meta); code != http.StatusOK {
			t.Fatalf("%s with one dead shard: HTTP %d, want 200", path, code)
		}
		if !meta.Partial || !sameStrings(meta.Failed, []string{urls[1]}) {
			t.Fatalf("%s: partial=%v failed=%v, want partial from %s", path, meta.Partial, meta.Failed, urls[1])
		}
	}

	// The partial answer is exactly the survivors' union, not garbage.
	var got RouterQueryResponse
	postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: values, Threshold: 0.5}, &got)
	if !sameStrings(got.Matches, want) {
		t.Fatalf("partial matches %v != survivors' union %v", got.Matches, want)
	}

	// Two failed probes demote the shard; answers go clean (no partial) and
	// /ring reports the death.
	router.CheckHealth()
	router.CheckHealth()
	var ringResp RingResponse
	getJSON(t, rts.URL+"/ring", &ringResp)
	for _, si := range ringResp.Shards {
		if want := si.Name != urls[1]; si.Alive != want {
			t.Fatalf("after demotion, shard %s alive=%v", si.Name, si.Alive)
		}
	}
	got = RouterQueryResponse{}
	if code := postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: values, Threshold: 0.5}, &got); code != http.StatusOK {
		t.Fatalf("post-demotion query: HTTP %d", code)
	}
	if got.Partial || !sameStrings(got.Matches, want) {
		t.Fatalf("post-demotion: partial=%v matches=%v, want clean survivors' union", got.Partial, got.Matches)
	}

	// New writes route around the hole.
	var add RouterAddResponse
	if code := postJSON(t, rts.URL+"/add", wire.AddRequest{Key: "fresh", Values: windowValues(500)}, &add); code != http.StatusOK {
		t.Fatalf("post-demotion add: HTTP %d", code)
	}
	if add.Partial || containsKey(add.Shards, urls[1]) {
		t.Fatalf("post-demotion add touched the dead shard: %+v", add)
	}
}

// TestRouterReplicationAndDelete: with Replication 2 every key lives on two
// shards, merges still answer it once, and a routed delete removes every
// copy.
func TestRouterReplicationAndDelete(t *testing.T) {
	const n = 60
	urls, shards := startShards(t, 3)
	_, rts := startRouter(t, urls, Options{Ring: RingOptions{Replication: 2}})
	addVia(t, rts.URL, n)

	hasher := lshensemble.NewHasher(testNumHash, testSeed)
	total := 0
	for _, sh := range shards {
		total += sh.srv.Index().Len()
	}
	if total != 2*n {
		t.Fatalf("fleet holds %d copies, want %d (replication 2)", total, 2*n)
	}

	// Each key answers exactly once despite two copies.
	for i := 0; i < n; i += 13 {
		var got RouterQueryResponse
		postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: windowValues(i), Threshold: 1.0}, &got)
		hits := 0
		for _, k := range got.Matches {
			if k == domainKey(i) {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("key %s appears %d times in merged matches %v", domainKey(i), hits, got.Matches)
		}
	}

	// Routed delete removes both copies.
	var del RouterDeleteResponse
	if code := postJSON(t, rts.URL+"/delete", wire.DeleteRequest{Key: domainKey(7)}, &del); code != http.StatusOK {
		t.Fatalf("delete: HTTP %d", code)
	}
	if !del.Deleted || del.Partial || len(del.Shards) != 2 {
		t.Fatalf("delete response %+v, want clean 2-shard ack", del)
	}
	rec := lshensemble.SketchStrings(hasher, domainKey(7), windowValues(7))
	for si, sh := range shards {
		if containsKey(sh.srv.Index().Query(rec.Sig, rec.Size, 1.0), domainKey(7)) {
			t.Fatalf("shard %d still holds deleted key", si)
		}
	}
	var got RouterQueryResponse
	postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: windowValues(7), Threshold: 1.0}, &got)
	if containsKey(got.Matches, domainKey(7)) {
		t.Fatal("deleted key still answered by the fleet")
	}
}

// TestRouterConcurrentTraffic is the routed twin of serve's
// TestDaemonConcurrentTraffic: writers (/add, every fifth key /deleted again)
// and readers (/query, /query/topk, /query/batch) share a router over two
// shards whose tiny SealThreshold keeps both compactors busy. Run with -race.
func TestRouterConcurrentTraffic(t *testing.T) {
	const fixtures, writers, readers, perWorker = 40, 4, 4, 25
	opts := testLiveOpts()
	opts.SealThreshold = 8
	opts.MaxSegments = 2
	urls := make([]string, 2)
	for i := range urls {
		idx, err := lshensemble.BuildLive(nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Close)
		ts := httptest.NewServer(serve.NewWith(idx, lshensemble.NewHasher(testNumHash, testSeed), testSeed, "", serve.Options{}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	// A generous deadline: a leg slowed by -race must not turn partial.
	_, rts := startRouter(t, urls, Options{ShardTimeout: 30 * time.Second})
	addVia(t, rts.URL, fixtures)

	// send posts body to the router and decodes the reply into out; anything
	// but a 2xx that is not partial is an error.
	send := func(path string, body, out any) error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(rts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, raw)
		}
		var meta struct {
			Partial bool     `json:"partial"`
			Failed  []string `json:"failed"`
		}
		if err := json.Unmarshal(raw, &meta); err != nil {
			return err
		}
		if meta.Partial {
			return fmt.Errorf("%s: partial answer with healthy shards, failed %v", path, meta.Failed)
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(raw, out)
	}

	done := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				// Writer windows start past the fixtures' values, so no
				// fixture query's answer depends on them.
				key := fmt.Sprintf("w%d:col%d", w, i)
				if err := send("/add", wire.AddRequest{Key: key, Values: windowValues(1000 + w*100 + i)}, nil); err != nil {
					done <- err
					return
				}
				if i%5 == 0 {
					if err := send("/delete", wire.DeleteRequest{Key: key}, nil); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	for r := 0; r < readers; r++ {
		go func(r int) {
			for i := 0; i < perWorker; i++ {
				f := (r*perWorker + i) % fixtures
				values := windowValues(f)
				var err error
				switch i % 3 {
				case 0:
					var q RouterQueryResponse
					if err = send("/query", wire.QueryRequest{Values: values, Threshold: 1.0}, &q); err == nil && !containsKey(q.Matches, domainKey(f)) {
						err = fmt.Errorf("/query lost fixture %s mid-traffic: %v", domainKey(f), q.Matches)
					}
				case 1:
					err = send("/query/topk", wire.TopKRequest{Values: values, K: 5}, nil)
				case 2:
					err = send("/query/batch", wire.BatchRequest{Queries: []wire.QueryRequest{
						{Values: values, Threshold: 1.0},
						{Values: windowValues(1000 + r*100 + i), Threshold: 0.5},
					}}, nil)
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(r)
	}
	for i := 0; i < writers+readers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	var stats RouterFleetResponse[serve.StatsResponse]
	if code := getJSON(t, rts.URL+"/stats", &stats); code != http.StatusOK || stats.Partial {
		t.Fatalf("stats: HTTP %d, partial=%v", code, stats.Partial)
	}
	total := 0
	for _, st := range stats.Shards {
		total += st.Domains
	}
	// The fixtures plus, per writer, perWorker added keys of which every
	// fifth was deleted again.
	if want := fixtures + writers*(perWorker-perWorker/5); total != want {
		t.Fatalf("fleet holds %d domains, want %d", total, want)
	}
}

// TestRouterSlowShardDeadline: a shard that hangs past the per-shard
// deadline degrades the answer to partial instead of stalling it.
func TestRouterSlowShardDeadline(t *testing.T) {
	urls, _ := startShards(t, 2)
	hang, hangURL := newRecordFront(t, newShardServer(t, testSeed))
	hang.hold.Store(true) // answers no record

	_, rts := startRouter(t, append(urls, hangURL), Options{ShardTimeout: 200 * time.Millisecond})
	start := time.Now()
	var got RouterQueryResponse
	if code := postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: windowValues(0), Threshold: 0.5}, &got); code != http.StatusOK {
		t.Fatalf("query with hung shard: HTTP %d", code)
	}
	if !got.Partial || !sameStrings(got.Failed, []string{hangURL}) {
		t.Fatalf("hung shard not reported: partial=%v failed=%v", got.Partial, got.Failed)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hung shard stalled the answer for %v", elapsed)
	}
}

// TestRouterSlowSaveIsNotCutOff: /save runs under the operator's request,
// not the query deadline — a shard whose snapshot outlasts ShardTimeout is
// reported under shards with its file, not under failed — while a query leg
// that slow still degrades the answer to partial.
func TestRouterSlowSaveIsNotCutOff(t *testing.T) {
	const shardTimeout = 100 * time.Millisecond
	// A shard whose /save takes delay to answer with a stub file, and whose
	// record legs hang when slow.
	stub := func(delay time.Duration, slow bool) string {
		srv := newShardServer(t, testSeed)
		front, url := newRecordFront(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/save" {
				srv.ServeHTTP(w, r)
				return
			}
			select {
			case <-r.Context().Done():
				return
			case <-time.After(delay):
			}
			wire.WriteJSON(w, http.StatusOK, serve.SaveResponse{Path: "stub.snap", Bytes: 42})
		}))
		front.hold.Store(slow)
		return url
	}
	fast, slow := stub(0, false), stub(3*shardTimeout, true)
	_, rts := startRouter(t, []string{fast, slow}, Options{ShardTimeout: shardTimeout})

	var saved RouterFleetResponse[serve.SaveResponse]
	if code := postJSON(t, rts.URL+"/save", struct{}{}, &saved); code != http.StatusOK {
		t.Fatalf("save: HTTP %d", code)
	}
	if saved.Shards[slow].Bytes != 42 || len(saved.Shards) != 2 || saved.Partial {
		t.Fatalf("slow snapshot cut off: shards=%+v failed=%v", saved.Shards, saved.Failed)
	}

	var got RouterQueryResponse
	if code := postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: windowValues(0), Threshold: 0.5}, &got); code != http.StatusOK {
		t.Fatalf("query: HTTP %d", code)
	}
	if !got.Partial || !sameStrings(got.Failed, []string{slow}) {
		t.Fatalf("slow query leg not cut off: partial=%v failed=%v", got.Partial, got.Failed)
	}
}

// TestRouterBlackout: with every shard dead the router answers 5xx (the
// only time it may) and /healthz reflects the outage after demotion.
func TestRouterBlackout(t *testing.T) {
	urls, shards := startShards(t, 2)
	router, rts := startRouter(t, urls, Options{HealthFailures: 1})
	addVia(t, rts.URL, 10)
	for _, sh := range shards {
		sh.kill()
	}

	var errResp wire.ErrorResponse
	if code := postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: windowValues(0)}, &errResp); code != http.StatusBadGateway {
		t.Fatalf("total blackout query: HTTP %d, want 502", code)
	}
	router.CheckHealth()
	if code := getJSON(t, rts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after fleet death: HTTP %d, want 503", code)
	}
	if code := postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: windowValues(0)}, &errResp); code != http.StatusServiceUnavailable {
		t.Fatalf("empty-ring query: HTTP %d, want 503", code)
	}
	if code := postJSON(t, rts.URL+"/add", wire.AddRequest{Key: "k", Values: windowValues(0)}, &errResp); code != http.StatusServiceUnavailable {
		t.Fatalf("empty-ring add: HTTP %d, want 503", code)
	}
}

// TestRouterStatsAndRing: the admin surface gathers per-shard stats and
// reports topology.
func TestRouterStatsAndRing(t *testing.T) {
	urls, _ := startShards(t, 2)
	_, rts := startRouter(t, urls, Options{})
	addVia(t, rts.URL, 30)

	var stats RouterFleetResponse[serve.StatsResponse]
	if code := getJSON(t, rts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if len(stats.Shards) != 2 || stats.Partial {
		t.Fatalf("stats shape: %+v", stats)
	}
	total := 0
	for name, st := range stats.Shards {
		if st.Seed != testSeed || st.NumHash != testNumHash {
			t.Fatalf("shard %s serving params drifted: %+v", name, st)
		}
		total += st.Domains
	}
	if total != 30 {
		t.Fatalf("stats count %d keys across the fleet, want 30", total)
	}

	var ring RingResponse
	if code := getJSON(t, rts.URL+"/ring", &ring); code != http.StatusOK {
		t.Fatalf("ring: HTTP %d", code)
	}
	if len(ring.Shards) != 2 || ring.Replication != 1 {
		t.Fatalf("ring shape: %+v", ring)
	}
	share := 0.0
	for _, si := range ring.Shards {
		if !si.Alive {
			t.Fatalf("healthy shard %s reported dead", si.Name)
		}
		share += si.Share
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("ring shares sum to %v, want 1", share)
	}
}

// TestRouterRelaysShardAdminBodies: each shard's entry in the router's
// /stats and /compact answers is that shard's own body, fields the router
// has no type for included: the router relays what the daemon says about
// itself without linking the daemon's types.
func TestRouterRelaysShardAdminBodies(t *testing.T) {
	bodies := map[string]map[string]string{} // shard URL → path → its body
	var urls []string
	for i := 0; i < 2; i++ {
		byPath := map[string]string{
			"/stats": fmt.Sprintf(`{"domains":%d,"num_hash":%d,"seed":%d,"records":true,"shard_only":{"n":[%d,1.5e300]}}`,
				i, testNumHash, testSeed, i),
			"/compact": fmt.Sprintf(`{"domains":%d,"num_hash":%d,"seed":%d,"records":true,"compacted_by":"shard %d"}`,
				i, testNumHash, testSeed, i),
		}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, ok := byPath[r.URL.Path]
			if !ok { // /healthz
				body = `{"status":"ok"}`
			}
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, body+"\n")
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		bodies[ts.URL] = byPath
	}
	_, rts := startRouter(t, urls, Options{})
	for _, c := range []struct{ method, path string }{{http.MethodGet, "/stats"}, {http.MethodPost, "/compact"}} {
		req, err := http.NewRequest(c.method, rts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var got RouterFleetResponse[json.RawMessage]
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || got.Partial || len(got.Shards) != len(urls) {
			t.Fatalf("%s %s: HTTP %d, %+v (%v)", c.method, c.path, resp.StatusCode, got, err)
		}
		for _, u := range urls {
			if string(got.Shards[u]) != bodies[u][c.path] {
				t.Errorf("%s %s: shard %s relayed as %s, its body is %s", c.method, c.path, u, got.Shards[u], bodies[u][c.path])
			}
		}
	}
}

// TestNewRouterRefusesUnusableURLs: a shard URL the router could not send a
// record to is refused when the router is built, instead of answering 503
// for ever; a trailing slash is trimmed, so it cannot name a shard twice.
func TestNewRouterRefusesUnusableURLs(t *testing.T) {
	for _, c := range []struct {
		name string
		urls []string
		want string
	}{
		{"no scheme", []string{"localhost:7447"}, `shard URL "localhost:7447" is not http://host[:port]`},
		{"https", []string{"https://h:7447"}, `shard URL "https://h:7447" is not http://host[:port]`},
		{"path", []string{"http://h:7447/shard"}, `shard URL "http://h:7447/shard" is not http://host[:port]`},
		{"slash twin", []string{"http://h:7447", "http://h:7447/"}, `duplicate shard URL "http://h:7447"`},
	} {
		if _, err := NewRouter(c.urls, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewRouter(%q) = %v, want an error naming %s", c.name, c.urls, err, c.want)
		}
	}
	r, err := NewRouter([]string{"http://h:7447/"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if name := r.shards[0].name; name != "http://h:7447" {
		t.Fatalf("shard named %q, want the trailing slash trimmed", name)
	}
}
