package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lshensemble"
	"lshensemble/internal/serve"
	"lshensemble/internal/wire"
)

// postRaw posts a literal JSON body and returns the status and the answer's
// bytes — for requests no typed struct can express and for comparing answers
// byte for byte.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// ringFamily is the fleet's family as /ring reports it, nil before one is
// adopted.
func ringFamily(t *testing.T, routerURL string) *HashFamily {
	t.Helper()
	var ring RingResponse
	if code := getJSON(t, routerURL+"/ring", &ring); code != http.StatusOK {
		t.Fatalf("ring: HTTP %d", code)
	}
	return ring.Family
}

// TestRouterRefusesMalformedQuery: a query or write no shard would accept is
// the client's 400 in the shard's words, caught by the router while it reads
// and sketches — not "all live shards failed", not a 502, and not a mark
// against any shard.
func TestRouterRefusesMalformedQuery(t *testing.T) {
	bad := []struct{ path, body, wantInError string }{
		{"/query", `{"values":["a","b"],"threshold":2}`, "threshold 2 out of range"},
		{"/query", `{"threshold":0.5}`, "values must be non-empty"},
		{"/query/topk", `{"values":["a"],"k":-1}`, "k -1 must be positive"},
		{"/query/topk", `{"k":3}`, "values must be non-empty"},
		{"/query/batch", `{"queries":[]}`, "queries must be non-empty"},
		{"/query/batch", `{"queries":[{"values":["a"]},{"values":["b"],"threshold":-0.1}]}`, "query 1: threshold -0.1 out of range"},
		{"/query/batch", `{"queries":[{"values":["a"]},{"values":["b"]},{}]}`, "query 2: values must be non-empty"},
		{"/query", `{"values":["a"],"size":-5}`, "size -5 must not be negative"},
		{"/query/topk", `{"values":["a"],"size":-5}`, "size -5 must not be negative"},
		{"/query/batch", `{"queries":[{"values":["a"]},{"values":["b"],"size":-1}]}`, "query 1: size -1 must not be negative"},
		{"/query", `{"values":["a"],"threshhold":0.5}`, "unknown field"},
		{"/query", `{"values":["a"]} trailing garbage`, "after the JSON value"},
		{"/query/topk", `{"values":["a"],"k":3}]`, "after the JSON value"},
		{"/query/batch", `{"queries":[{"values":["a"]}]}}`, "after the JSON value"},
		{"/add", `{"key":"k","values":["a"]}nonsense`, "after the JSON value"},
		{"/add", `{"key":"k","values":[]}`, "values must be non-empty"},
		{"/add", `{"key":"k"}`, "values must be non-empty"},
		{"/add", `{"key":"","values":["a"]}`, "key is required"},
		{"/add", `{"key":"k","values":["a"],"size":3}`, "unknown field"},
		{"/delete", `{"key":""}`, "key is required"},
		{"/delete", `{"key":"k","values":["a"]}`, "unknown field"},
	}
	t.Run("sketched", func(t *testing.T) {
		urls, shards := startShards(t, 2)
		router, rts := startRouter(t, urls, Options{})
		router.CheckHealth()
		addVia(t, rts.URL, 10)
		for _, c := range bad {
			code, body := postRaw(t, rts.URL+c.path, c.body)
			shardCode, shardBody := postRaw(t, urls[0]+c.path, c.body)
			if code != http.StatusBadRequest || !strings.Contains(body, c.wantInError) || shardCode != code || shardBody != body {
				t.Errorf("%s %s: HTTP %d %s, want the shard's 400 %s naming %q", c.path, c.body, code, body, shardBody, c.wantInError)
			}
		}
		text := scrapeText(t, rts.URL)
		for _, u := range urls {
			if want := `lshrouter_shard_errors_total{shard="` + u + `"} 0`; !strings.Contains(text, want) {
				t.Errorf("a malformed request was counted against shard %s:\n%s", u, text)
			}
		}
		if !strings.Contains(text, "lshrouter_partial_responses_total 0") {
			t.Errorf("a refused query was counted as a partial response:\n%s", text)
		}
		if n := shards[0].srv.Index().Len() + shards[1].srv.Index().Len(); n != 10 {
			t.Errorf("the fleet holds %d domains after the refused writes, want 10", n)
		}
		// A well-formed query still goes through.
		var ok RouterQueryResponse
		if code := postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: windowValues(3)}, &ok); code != http.StatusOK || ok.Partial {
			t.Fatalf("well-formed query after the refusals: HTTP %d partial=%v", code, ok.Partial)
		}
	})
}

// refusingShard is a real shard whose record legs are all answered with
// status and msg in the error envelope.
func refusingShard(t *testing.T, status int, msg string) string {
	front, url := newRecordFront(t, newShardServer(t, testSeed))
	envelope := append(mustMarshal(t, wire.ErrorResponse{Error: msg}), '\n')
	front.edit = func(int, []byte) (int, []byte) { return status, envelope }
	return url
}

// TestRouterRelaysOnlyUnanimousRefusals: shards that refuse for different
// reasons, or a refusal next to an outage, are failed shards — 502 and
// counted — not a client error to relay.
func TestRouterRelaysOnlyUnanimousRefusals(t *testing.T) {
	same := []string{refusingShard(t, http.StatusBadRequest, "nope"), refusingShard(t, http.StatusBadRequest, "nope")}
	_, rts := startRouter(t, same, Options{})
	if code, body := postRaw(t, rts.URL+"/query", `{"values":["a"]}`); code != http.StatusBadRequest || !strings.Contains(body, `"nope"`) {
		t.Fatalf("unanimous refusal: HTTP %d %s, want the shards' 400 relayed", code, body)
	}

	differ := []string{refusingShard(t, http.StatusBadRequest, "nope"), refusingShard(t, http.StatusBadRequest, "never")}
	_, rts = startRouter(t, differ, Options{})
	if code, _ := postRaw(t, rts.URL+"/query", `{"values":["a"]}`); code != http.StatusBadGateway {
		t.Fatalf("shards refusing differently: HTTP %d, want 502", code)
	}
	text := scrapeText(t, rts.URL)
	for _, u := range differ {
		if want := `lshrouter_shard_errors_total{shard="` + u + `"} 1`; !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	urls, shards := startShards(t, 1)
	router, rts := startRouter(t, []string{refusingShard(t, http.StatusBadRequest, "nope"), urls[0]}, Options{})
	router.CheckHealth()
	shards[0].kill()
	if code, _ := postRaw(t, rts.URL+"/query", `{"values":["a"]}`); code != http.StatusBadGateway {
		t.Fatalf("a refusal beside an outage: HTTP %d, want 502", code)
	}
}

func TestMergeSorted(t *testing.T) {
	for _, c := range []struct {
		name  string
		lists [][]string
		want  []string
	}{
		{"nothing", nil, []string{}},
		{"one list", [][]string{{"a", "c"}}, []string{"a", "c"}},
		{"disjoint", [][]string{{"a", "d"}, {"b", "c", "e"}}, []string{"a", "b", "c", "d", "e"}},
		{"replicated keys", [][]string{{"a", "b", "c"}, {"b", "c", "d"}, {"a", "d"}}, []string{"a", "b", "c", "d"}},
		{"empty lists among full", [][]string{{}, {"x"}, nil}, []string{"x"}},
		{"duplicate inside a list", [][]string{{"a", "a", "b"}, {"b"}}, []string{"a", "b"}},
	} {
		if got := mergeSorted(c.lists); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: mergeSorted(%v) = %v, want %v", c.name, c.lists, got, c.want)
		}
	}
}

// swapHandler is a shard address whose server can be replaced under the
// router's feet — a restart, which closes the record connections the old
// server upgraded — and whose /healthz can be failed to walk the shard
// through demotion and promotion.
type swapHandler struct {
	mu    sync.Mutex
	next  http.Handler
	conns []net.Conn // upgraded by the current server
	down  atomic.Bool
	stats atomic.Int64 // GET /stats served
}

func (h *swapHandler) swap(next http.Handler) {
	h.mu.Lock()
	h.next = next
	conns := h.conns
	h.conns = nil
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// hijackTracker hands the connections its writer's handler hijacks to h.
type hijackTracker struct {
	http.ResponseWriter
	h *swapHandler
}

func (w hijackTracker) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	conn, brw, err := http.NewResponseController(w.ResponseWriter).Hijack()
	if err == nil {
		w.h.mu.Lock()
		w.h.conns = append(w.h.conns, conn)
		w.h.mu.Unlock()
	}
	return conn, brw, err
}

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" && h.down.Load() {
		http.Error(w, "sick", http.StatusServiceUnavailable)
		return
	}
	if r.URL.Path == "/stats" {
		h.stats.Add(1)
	}
	h.mu.Lock()
	next := h.next
	h.mu.Unlock()
	if r.URL.Path == wire.RecordPath {
		w = hijackTracker{w, h}
	}
	next.ServeHTTP(w, r)
}

func newShardServer(t *testing.T, seed uint64) *serve.Server {
	t.Helper()
	idx, err := lshensemble.BuildLive(nil, testLiveOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	return serve.NewWith(idx, lshensemble.NewHasher(testNumHash, seed), seed, "", serve.Options{})
}

func startSwappable(t *testing.T, n int) ([]string, []*swapHandler, []*serve.Server) {
	t.Helper()
	urls := make([]string, n)
	fronts := make([]*swapHandler, n)
	servers := make([]*serve.Server, n)
	for i := range urls {
		servers[i] = newShardServer(t, testSeed)
		fronts[i] = &swapHandler{next: servers[i]}
		ts := httptest.NewServer(fronts[i])
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls, fronts, servers
}

// TestShardRestartedWithAnotherSeed: a shard that comes back sketching with
// another seed refuses the router's records, so its leg fails and the answer
// goes partial — what it holds is never merged as if comparable. The refusal
// holds it out of the ring; the next learning round hears its other family,
// logs it and counts a demotion, and answers are clean again over the rest
// of the fleet. When the operator brings it back under the fleet's seed, the
// promotion learns its family once and it rejoins.
func TestShardRestartedWithAnotherSeed(t *testing.T) {
	urls, fronts, servers := startSwappable(t, 2)
	var routerLog lockedBuf
	logger := slog.New(slog.NewTextHandler(&routerLog, &slog.HandlerOptions{Level: slog.LevelInfo}))
	router, rts := startRouter(t, urls, Options{HealthFailures: 1, Logger: logger})
	router.CheckHealth()
	addVia(t, rts.URL, 40)
	if fam := ringFamily(t, rts.URL); fam == nil || *fam != (HashFamily{Seed: testSeed, NumHash: testNumHash}) {
		t.Fatalf("family after the first health tick: %+v, want %d/%d", fam, testSeed, testNumHash)
	}

	// What shard 0 alone answers: the most a fleet with shard 1 gone can say.
	values := windowValues(5)
	rec := lshensemble.SketchStrings(lshensemble.NewHasher(testNumHash, testSeed), "query", values)
	want := servers[0].Index().Query(rec.Sig, rec.Size, 0.3)
	sort.Strings(want)

	// Shard 1 restarts under another seed, holding domains sketched with it.
	other := newShardServer(t, testSeed+1)
	otherHasher := lshensemble.NewHasher(testNumHash, testSeed+1)
	for i := 0; i < 40; i++ {
		if _, err := other.Index().Add(lshensemble.SketchStrings(otherHasher, "alien-"+domainKey(i), windowValues(i))); err != nil {
			t.Fatal(err)
		}
	}
	fronts[1].swap(other)

	var got RouterQueryResponse
	if code := postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: values, Threshold: 0.3}, &got); code != http.StatusOK {
		t.Fatalf("query with a re-seeded shard: HTTP %d", code)
	}
	if !got.Partial || !sameStrings(got.Failed, []string{urls[1]}) {
		t.Fatalf("re-seeded shard's leg not failed: partial=%v failed=%v matches=%v", got.Partial, got.Failed, got.Matches)
	}
	if !sameStrings(got.Matches, want) {
		t.Fatalf("partial answer %v, want shard 0's own %v (nothing of the re-seeded shard merged)", got.Matches, want)
	}
	text := scrapeText(t, rts.URL)
	for _, w := range []string{`lshrouter_shard_errors_total{shard="` + urls[1] + `"} 1`, "lshrouter_shards_live 1"} {
		if !strings.Contains(text, w) {
			t.Errorf("after the refused leg, scrape missing %q", w)
		}
	}

	// Held out of the ring at once: clean answers over shard 0, writes too.
	// The next rounds hear the other family: one demotion, logged.
	for round := 0; round < 2; round++ {
		got = RouterQueryResponse{}
		postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: values, Threshold: 0.3}, &got)
		if got.Partial || !sameStrings(got.Matches, want) {
			t.Fatalf("round %d with the re-seeded shard held out: partial=%v matches=%v", round, got.Partial, got.Matches)
		}
		router.CheckHealth()
	}
	var add RouterAddResponse
	if code := postJSON(t, rts.URL+"/add", wire.AddRequest{Key: "fresh", Values: windowValues(700)}, &add); code != http.StatusOK || add.Partial || !sameStrings(add.Shards, []string{urls[0]}) {
		t.Fatalf("add with the re-seeded shard held out: HTTP %d %+v", code, add)
	}
	if text := scrapeText(t, rts.URL); !strings.Contains(text, `lshrouter_shard_demotions_total{shard="`+urls[1]+`"} 1`) {
		t.Errorf("the other family was not counted once as a demotion:\n%s", text)
	}
	if !containsLine(routerLog.String(), "shard demoted", "hash family seed 100") {
		t.Errorf("the other family was not logged:\n%s", routerLog.String())
	}
	if fam := ringFamily(t, rts.URL); fam == nil || fam.Seed != testSeed {
		t.Fatalf("the fleet's family moved: %+v", fam)
	}

	// The operator takes the shard down and brings it back under the right
	// seed: the promotion learns its family, once, and it is back in the ring.
	fronts[1].down.Store(true)
	router.CheckHealth()
	fronts[1].swap(servers[1])
	fronts[1].down.Store(false)
	statsBefore := fronts[1].stats.Load()
	router.CheckHealth()
	if n := fronts[1].stats.Load() - statsBefore; n != 1 {
		t.Fatalf("promotion fetched the shard's /stats %d times, want once", n)
	}
	got = RouterQueryResponse{}
	postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: values, Threshold: 0.3}, &got)
	if got.Partial || containsKey(got.Matches, "alien-"+domainKey(5)) || !containsKey(got.Matches, domainKey(5)) {
		t.Fatalf("repaired fleet: partial=%v matches=%v", got.Partial, got.Matches)
	}
}

// TestFamilyLearnedOnceOnDemand: requests that arrive before any health tick
// trigger exactly one /stats fetch per shard between them and go out
// sketched; a shard whose /stats fails is held out of the ring, neither
// counted as erring nor re-asked by every request that follows; and a fleet
// none of whose shards reports is a 503 with Retry-After.
func TestFamilyLearnedOnceOnDemand(t *testing.T) {
	urls, fronts, _ := startSwappable(t, 2)
	_, rts := startRouter(t, urls, Options{}) // never Started, no CheckHealth
	if fam := ringFamily(t, rts.URL); fam != nil {
		t.Fatalf("family before any query or tick: %+v, want none", fam)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code, body := postRaw(t, rts.URL+"/query", fmt.Sprintf(`{"values":["v%d","w"]}`, i)); code != http.StatusOK {
				t.Errorf("first-wave query %d: HTTP %d %s", i, code, body)
			}
		}(i)
	}
	wg.Wait()
	for i, f := range fronts {
		if n := f.stats.Load(); n != 1 {
			t.Errorf("shard %d served /stats %d times for 8 racing first queries, want 1", i, n)
		}
	}
	for _, u := range urls {
		if text := scrapeText(t, u); !strings.Contains(text, `lshensembled_sketched_requests_total{op="query"} 8`) {
			t.Errorf("first-wave queries did not all reach shard %s sketched:\n%s", u, text)
		}
	}
	var ring RingResponse
	getJSON(t, rts.URL+"/ring", &ring)
	for _, si := range ring.Shards {
		if si.Family == nil || si.Family.Seed != testSeed || si.Family.NumHash != testNumHash {
			t.Errorf("/ring shard %s family %+v, want %d/%d", si.Name, si.Family, testSeed, testNumHash)
		}
	}

	// A shard that cannot say its family: held out, no shard error, and one
	// on-demand attempt in all, not one per request.
	mute := &swapHandler{next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusInternalServerError)
	})}
	mts := httptest.NewServer(mute)
	t.Cleanup(mts.Close)
	_, rts2 := startRouter(t, []string{urls[0], mts.URL}, Options{})
	for i := 0; i < 3; i++ {
		if code, body := postRaw(t, rts2.URL+"/query", `{"values":["a"]}`); code != http.StatusOK || strings.Contains(body, `"partial":true`) {
			t.Fatalf("query beside a mute shard: HTTP %d %s", code, body)
		}
	}
	if n := mute.stats.Load(); n != 1 {
		t.Errorf("mute shard asked for /stats %d times by 3 queries, want 1", n)
	}
	if text := scrapeText(t, rts2.URL); !strings.Contains(text, `lshrouter_shard_errors_total{shard="`+mts.URL+`"} 0`) ||
		!strings.Contains(text, "lshrouter_shards_live 1") {
		t.Errorf("mute shard: want it outside the ring and no shard error:\n%s", text)
	}

	// No shard says: every request is a 503 that says when to come back, and
	// still one on-demand attempt in all.
	mute.stats.Store(0)
	_, rts3 := startRouter(t, []string{mts.URL}, Options{HealthInterval: 1500 * time.Millisecond})
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/query", `{"values":["a"]}`},
		{http.MethodPost, "/add", `{"key":"k","values":["a"]}`},
		{http.MethodPost, "/delete", `{"key":"k"}`},
		{http.MethodGet, "/stats", ""},
	} {
		req, _ := http.NewRequest(c.method, rts3.URL+c.path, strings.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "2" {
			t.Errorf("%s with no family known: HTTP %d Retry-After %q %s", c.path, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
	}
	if n := mute.stats.Load(); n != 1 {
		t.Errorf("a fleet with no family asked the mute shard %d times, want 1", n)
	}
}

// TestRouterBoundsEncodedFrame: a record's length is known from its shape
// and row count before any row is sketched: wire.RecordLen equals the
// length of the record encoded, for one row and for many.
func TestRouterBoundsEncodedFrame(t *testing.T) {
	h := lshensemble.NewHasher(testNumHash, testSeed)
	q := lshensemble.BatchQuery{Sig: lshensemble.SketchStrings(h, "q", []string{"a"}).Sig, Size: math.MaxInt, Threshold: 1.0000000000000002e-6}
	for _, c := range []struct {
		o      wire.Op
		rows   int
		record []byte
	}{
		{wire.OpQuery, 1, wire.AppendQueryRecord(nil, testSeed, q)},
		{wire.OpTopK, 1, wire.AppendTopKRecord(nil, testSeed, math.MaxInt, q.Size, q.Sig)},
		{wire.OpBatch, 1, wire.AppendBatchRecord(nil, testSeed, -1, []lshensemble.BatchQuery{q})},
		{wire.OpBatch, 7, wire.AppendBatchRecord(nil, testSeed, -1, []lshensemble.BatchQuery{q, q, q, q, q, q, q})},
	} {
		if got := wire.RecordLen(c.o, c.rows, testNumHash); got != len(c.record) {
			t.Errorf("%s of %d rows: RecordLen %d, the record is %d bytes", c.o, c.rows, got, len(c.record))
		}
	}
}

// TestRouterBoundsSketchedBatch: a batch one row past what fits the shards'
// request limit is refused with a 400 asking to split it, before any row is
// sketched. No leg goes out, so no shard refuses one: the fleet keeps its
// hash family and no shard is counted as failing.
func TestRouterBoundsSketchedBatch(t *testing.T) {
	urls, _ := startShards(t, 2)
	router, rts := startRouter(t, urls, Options{})
	router.CheckHealth()
	perRow := wire.RecordLen(wire.OpBatch, 1, testNumHash) - wire.RecordLen(wire.OpBatch, 0, testNumHash)
	rows := (wire.MaxRequestBody-wire.RecordLen(wire.OpBatch, 0, testNumHash))/perRow + 1
	if wire.RecordLen(wire.OpBatch, rows-1, testNumHash) > wire.MaxRequestBody || wire.RecordLen(wire.OpBatch, rows, testNumHash) <= wire.MaxRequestBody {
		t.Fatalf("%d rows are not one past the limit", rows)
	}
	const row = `{"values":["a"]}`
	body := `{"queries":[` + strings.Repeat(row+",", rows-1) + row + `]}`
	code, answer := postRaw(t, rts.URL+"/query/batch", body)
	if code != http.StatusBadRequest || !strings.Contains(answer, "split the batch") {
		t.Fatalf("batch of %d rows: HTTP %d %.200s, want a 400 asking to split it", rows, code, answer)
	}
	if fam := ringFamily(t, rts.URL); fam == nil {
		t.Fatal("no family after the refusal")
	}
	text := scrapeText(t, rts.URL)
	want := []string{"lshrouter_shards_live 2"}
	for _, u := range urls {
		want = append(want, `lshrouter_shard_errors_total{shard="`+u+`"} 0`)
		if shardText := scrapeText(t, u); !strings.Contains(shardText, `lshensembled_sketched_requests_total{op="batch"} 0`) {
			t.Errorf("shard %s was sent a batch record:\n%s", u, shardText)
		}
	}
	for _, w := range want {
		if !strings.Contains(text, w) {
			t.Errorf("scrape missing %q", w)
		}
	}
}

// TestEmptyAnswerIsEmptyList: a threshold query that matches nothing answers
// "matches":[], never null, from a shard and from the router in front of it,
// and so does every empty row of a batch. (A ranked query over a non-empty
// index always ranks something, at an estimate of 0 if need be.)
func TestEmptyAnswerIsEmptyList(t *testing.T) {
	urls, _ := startShards(t, 2)
	router, rts := startRouter(t, urls, Options{})
	router.CheckHealth()
	addVia(t, rts.URL, 20)
	nothing := `"values":["nowhere-1","nowhere-2"]`
	for _, c := range []struct{ path, body, want string }{
		{"/query", `{` + nothing + `}`, `{"matches":[],"count":0`},
		{"/query/batch", `{"queries":[{` + nothing + `},{` + nothing + `,"threshold":1}]}`,
			`{"rows":[{"matches":[],"count":0},{"matches":[],"count":0}]`},
	} {
		for _, base := range []string{urls[0], rts.URL} {
			if code, body := postRaw(t, base+c.path, c.body); code != http.StatusOK || !strings.HasPrefix(body, c.want) {
				t.Errorf("%s%s: HTTP %d %s, want it to start %s", base, c.path, code, body, c.want)
			}
		}
	}
}

// TestRouterFailsMalformedFrame: an answer frame that is malformed, or not
// the shape of the request, fails its record leg alone. The router answers partial,
// names the shard, and merges nothing of it: what it answers is exactly the
// healthy shard's own answer.
func TestRouterFailsMalformedFrame(t *testing.T) {
	le := binary.LittleEndian
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = le.AppendUint32(b, v)
		}
		return b
	}
	key := func(b []byte, k string) []byte { return append(le.AppendUint32(b, uint32(len(k))), k...) }
	rows := func(rs ...[]string) []byte {
		b := u32(uint32(len(rs)))
		for _, r := range rs {
			b = le.AppendUint32(b, uint32(len(r)))
			for _, k := range r {
				b = key(b, k)
			}
		}
		return b
	}
	ranked := func(ms ...wire.TopKMatch) []byte {
		b := u32(1, uint32(len(ms)))
		for _, m := range ms {
			b = le.AppendUint64(key(b, m.Key), math.Float64bits(m.EstContainment))
		}
		return b
	}
	query := wire.QueryRequest{Values: windowValues(5), Threshold: 0.3}
	topk := wire.TopKRequest{Values: windowValues(5), K: 5}
	batch := wire.BatchRequest{Queries: []wire.QueryRequest{query, {Values: windowValues(9)}}}
	cases := []struct {
		name, path string
		req        any
		frame      []byte
	}{
		{"keys out of order", "/query", query, rows([]string{"zz-injected", "aa-injected"})},
		{"a key twice", "/query", query, rows([]string{"zz-injected", "zz-injected"})},
		{"two rows to one query", "/query", query, rows([]string{"zz-injected"}, nil)},
		{"one row to a batch of two", "/query/batch", batch, rows([]string{"zz-injected"})},
		{"a key count past the bytes", "/query", query, u32(1, 0xffffffff)},
		{"a truncated key", "/query", query, append(u32(1, 1, 11), "zz-inj"...)},
		{"a byte left over", "/query/batch", batch, append(rows([]string{"zz-injected"}, nil), 0)},
		{"scores out of rank order", "/query/topk", topk, ranked(wire.TopKMatch{Key: "aa-injected", EstContainment: 0.1}, wire.TopKMatch{Key: "zz-injected", EstContainment: 0.9})},
		{"a score that is not a number", "/query/topk", topk, ranked(wire.TopKMatch{Key: "zz-injected", EstContainment: math.NaN()})},
	}

	urls, shards := startShards(t, 1)
	hasher := lshensemble.NewHasher(testNumHash, testSeed)
	for i := 0; i < 40; i++ {
		if _, err := shards[0].srv.Index().Add(lshensemble.SketchStrings(hasher, domainKey(i), windowValues(i))); err != nil {
			t.Fatal(err)
		}
	}
	var bad atomic.Pointer[[]byte]
	front, burl := newRecordFront(t, newShardServer(t, testSeed))
	front.edit = func(int, []byte) (int, []byte) { return http.StatusOK, *bad.Load() }
	router, rts := startRouter(t, append(urls, burl), Options{})
	router.CheckHealth()

	type answer struct {
		Matches, Rows json.RawMessage
		Partial       bool
		Failed        []string
	}
	ask := func(url string, req any) (answer, string) {
		t.Helper()
		code, body := postRaw(t, url, string(mustMarshal(t, req)))
		var a answer
		if code != http.StatusOK || json.Unmarshal([]byte(body), &a) != nil {
			t.Fatalf("%s: HTTP %d %s", url, code, body)
		}
		return a, body
	}
	for i, c := range cases {
		bad.Store(&c.frame)
		got, body := ask(rts.URL+c.path, c.req)
		want, _ := ask(urls[0]+c.path, c.req)
		if !got.Partial || !sameStrings(got.Failed, []string{burl}) {
			t.Errorf("%s: partial=%v failed=%v, want the leg of %s failed", c.name, got.Partial, got.Failed, burl)
		}
		if !bytes.Equal(got.Matches, want.Matches) || !bytes.Equal(got.Rows, want.Rows) || strings.Contains(body, "injected") {
			t.Errorf("%s: router answered %s, want the healthy shard's own matches %s rows %s", c.name, body, want.Matches, want.Rows)
		}
		if len(want.Matches)+len(want.Rows) < 10 {
			t.Fatalf("%s: the healthy shard answers nothing, the comparison proves nothing", c.name)
		}
		if n := len(front.recorded()); n != i+1 {
			t.Fatalf("%s: the shard read %d record legs, want %d", c.name, n, i+1)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBodyCheckedBeforeFamily: a body no shard would accept is a 400 in the
// shard's words even while the router knows no hash family, and it does not
// send the router asking the shards for one; a body a shard would accept
// then gets the 503 with Retry-After.
func TestBodyCheckedBeforeFamily(t *testing.T) {
	urls, _ := startShards(t, 1)
	mute := &swapHandler{next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusInternalServerError)
	})}
	mts := httptest.NewServer(mute)
	t.Cleanup(mts.Close)
	_, rts := startRouter(t, []string{mts.URL}, Options{})
	for _, c := range []struct{ path, body, wantInError string }{
		{"/query", `{"values":["a"],"threshold":2}`, "threshold 2 out of range"},
		{"/query", `{"threshold":0.5}`, "values must be non-empty"},
		{"/query/topk", `{"values":["a"],"k":-1}`, "k -1 must be positive"},
		{"/query/batch", `{"queries":[{"values":["a"]},{"values":["b"],"size":-1}]}`, "query 1: size -1 must not be negative"},
		{"/add", `{"key":"","values":["a"]}`, "key is required"},
		{"/add", `{"key":"k"}`, "values must be non-empty"},
		{"/delete", `{"key":""}`, "key is required"},
	} {
		req, _ := http.NewRequest(http.MethodPost, rts.URL+c.path, strings.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		shardCode, shardBody := postRaw(t, urls[0]+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.wantInError) ||
			shardCode != resp.StatusCode || shardBody != string(body) || resp.Header.Get("Retry-After") != "" {
			t.Errorf("%s %s with no family known: HTTP %d Retry-After %q %s, want the shard's 400 %s naming %q",
				c.path, c.body, resp.StatusCode, resp.Header.Get("Retry-After"), body, shardBody, c.wantInError)
		}
	}
	if n := mute.stats.Load(); n != 0 {
		t.Errorf("refused bodies asked the shard for its family %d times, want 0", n)
	}
	if code, body := postRaw(t, rts.URL+"/query", `{"values":["a"],"threshold":1}`); code != http.StatusServiceUnavailable {
		t.Errorf("a well-formed query with no family known: HTTP %d %s, want 503", code, body)
	}
}
