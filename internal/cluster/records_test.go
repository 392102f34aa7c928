package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lshensemble"
	"lshensemble/internal/obs"
	"lshensemble/internal/serve"
	"lshensemble/internal/wire"
)

// readLeg reads one request record: its op, trace ID and body.
func readLeg(br *bufio.Reader) (wire.Op, string, []byte, error) {
	var h [2]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return 0, "", nil, err
	}
	rest := make([]byte, int(h[1])+8+4)
	if _, err := io.ReadFull(br, rest); err != nil {
		return 0, "", nil, err
	}
	body := make([]byte, binary.LittleEndian.Uint32(rest[len(rest)-4:]))
	_, err := io.ReadFull(br, body)
	return wire.Op(h[0]), string(rest[:h[1]]), body, err
}

// answerRecord is the answer record of status and body.
func answerRecord(status int, body []byte) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(status))
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(body))), body...)
}

// upgrade hijacks w's connection and switches it to record connections.
func upgrade(t *testing.T, w http.ResponseWriter) (net.Conn, *bufio.Reader) {
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+wire.RecordProtocol+"\r\n\r\n")
	return conn, brw.Reader
}

// recordFront fronts a real shard: it serves /records itself and everything
// else through the shard. Each request record it reads off a record
// connection is kept in legs and answered with what the shard answers the
// same record on a record connection of its own, passed through edit when
// set. While hold is set it answers nothing: it reads the record, says so on
// held, and waits for the router to close the connection, which it reports
// on closed.
type recordFront struct {
	t        *testing.T
	shard    http.Handler
	upstream *Client // to the shard, served on a listener of its own
	edit     func(status int, answer []byte) (int, []byte)
	hold     atomic.Bool
	held     chan struct{}
	closed   chan struct{}
	upgrades atomic.Int64

	mu   sync.Mutex
	legs [][]byte
}

func newRecordFront(t *testing.T, shard http.Handler) (*recordFront, string) {
	sts := httptest.NewServer(shard)
	t.Cleanup(sts.Close)
	f := &recordFront{t: t, shard: shard, upstream: NewClient(sts.URL, time.Minute),
		held: make(chan struct{}, 8), closed: make(chan struct{}, 8)}
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return f, ts.URL
}

func (f *recordFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != wire.RecordPath {
		f.shard.ServeHTTP(w, r)
		return
	}
	f.upgrades.Add(1)
	conn, br := upgrade(f.t, w)
	if conn == nil {
		return
	}
	defer conn.Close()
	var up *recordConn
	defer func() {
		if up != nil {
			up.Close()
		}
	}()
	for {
		op, trace, body, err := readLeg(br)
		if err != nil {
			return
		}
		f.mu.Lock()
		f.legs = append(f.legs, body)
		f.mu.Unlock()
		if f.hold.Load() {
			f.held <- struct{}{}
			io.Copy(io.Discard, br) // until the router closes the connection
			f.closed <- struct{}{}
			return
		}
		ctx := obs.WithTraceID(context.Background(), trace)
		if up == nil {
			if up, err = f.upstream.dial(ctx); err != nil {
				f.t.Error(err)
				return
			}
		}
		status, answer, err := up.exchange(ctx, op, body)
		if err != nil {
			f.t.Error(err)
			return
		}
		if f.edit != nil {
			status, answer = f.edit(status, answer)
		}
		if _, err := conn.Write(answerRecord(status, answer)); err != nil {
			return
		}
	}
}

func (f *recordFront) recorded() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]byte(nil), f.legs...)
}

func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting: %s", what)
	}
}

// TestRestartedShardCostsADial: a shard whose record connections close
// between two queries, as a restart closes them, answers the second routed
// query in full: the pooled connection fails before its answer's first byte
// and the leg is sent again on a fresh one.
func TestRestartedShardCostsADial(t *testing.T) {
	urls, fronts, servers := startSwappable(t, 2)
	router, rts := startRouter(t, urls, Options{})
	router.CheckHealth()
	addVia(t, rts.URL, 30)
	for round := 1; round <= 3; round++ {
		var got RouterQueryResponse
		if code := postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: windowValues(4), Threshold: 0.5}, &got); code != http.StatusOK || got.Partial {
			t.Fatalf("round %d: HTTP %d partial=%v failed=%v", round, code, got.Partial, got.Failed)
		}
		if !containsKey(got.Matches, domainKey(4)) {
			t.Fatalf("round %d: %v lacks %s", round, got.Matches, domainKey(4))
		}
		text := scrapeText(t, rts.URL)
		for _, u := range urls {
			for _, want := range []string{
				`lshrouter_shard_dials_total{shard="` + u + `"} ` + string(rune('0'+round)),
				`lshrouter_shard_errors_total{shard="` + u + `"} 0`,
			} {
				if !strings.Contains(text, want) {
					t.Fatalf("round %d: scrape missing %q", round, want)
				}
			}
		}
		for i := range fronts {
			fronts[i].swap(servers[i]) // a restart: the same shard, its connections gone
		}
	}
}

// TestHeldRecordIsCutOffAndDropped: a shard that holds a record past
// ShardTimeout costs its leg, not the answer, which arrives within the
// deadline; the connection the record was held on is closed and never
// handed out again.
func TestHeldRecordIsCutOffAndDropped(t *testing.T) {
	const shardTimeout = 300 * time.Millisecond
	urls, _ := startShards(t, 1)
	front, furl := newRecordFront(t, newShardServer(t, testSeed))
	router, rts := startRouter(t, append(urls, furl), Options{ShardTimeout: shardTimeout})
	router.CheckHealth()
	addVia(t, rts.URL, 20)
	query := wire.QueryRequest{Values: windowValues(3), Threshold: 0.5}

	front.hold.Store(true)
	start := time.Now()
	var got RouterQueryResponse
	if code := postJSON(t, rts.URL+"/query", query, &got); code != http.StatusOK {
		t.Fatalf("query with a held record: HTTP %d", code)
	}
	if elapsed := time.Since(start); elapsed > shardTimeout+time.Second {
		t.Fatalf("held record stalled the answer for %v", elapsed)
	}
	if !got.Partial || !sameStrings(got.Failed, []string{furl}) {
		t.Fatalf("held record: partial=%v failed=%v", got.Partial, got.Failed)
	}
	waitFor(t, front.closed, "the router to close the connection it gave up on")

	front.hold.Store(false)
	got = RouterQueryResponse{}
	if code := postJSON(t, rts.URL+"/query", query, &got); code != http.StatusOK || got.Partial {
		t.Fatalf("after the held record: HTTP %d partial=%v", code, got.Partial)
	}
	if n := front.upgrades.Load(); n != 2 {
		t.Fatalf("%d record connections upgraded, want 2: the cut-off one was handed out again", n)
	}
}

// TestClientHangupClosesLeg: a client that hangs up while a leg is out makes
// the router close that leg's record connection.
func TestClientHangupClosesLeg(t *testing.T) {
	front, furl := newRecordFront(t, newShardServer(t, testSeed))
	router, rts := startRouter(t, []string{furl}, Options{ShardTimeout: time.Minute})
	router.CheckHealth()
	front.hold.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rts.URL+"/query", strings.NewReader(`{"values":["a","b"]}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, front.held, "the leg to reach the shard")
	cancel()
	waitFor(t, front.closed, "the router to close the leg's connection")
	<-done
}

// TestOddShardsNeverJoinTheRing: a shard booted with another seed, and one
// whose /stats does not advertise record connections, never enter the ring.
// The first is counted as a demotion once; neither is dialed, written to or
// asked a query, and the fleet answers exactly like one node over the
// shards that remain.
func TestOddShardsNeverJoinTheRing(t *testing.T) {
	urls, shards := startShards(t, 2)
	alien := newShardServer(t, testSeed+1)
	alienHasher := lshensemble.NewHasher(testNumHash, testSeed+1)
	for i := 0; i < 40; i++ {
		if _, err := alien.Index().Add(lshensemble.SketchStrings(alienHasher, "alien-"+domainKey(i), windowValues(i))); err != nil {
			t.Fatal(err)
		}
	}
	ats := httptest.NewServer(alien)
	t.Cleanup(ats.Close)
	old := newShardServer(t, testSeed)
	ots := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case wire.RecordPath:
			http.NotFound(w, r)
		case "/stats":
			rr := httptest.NewRecorder()
			old.ServeHTTP(rr, r)
			var st map[string]any
			if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
				t.Error(err)
			}
			delete(st, "records")
			wire.WriteJSON(w, rr.Code, st)
		default:
			old.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(ots.Close)
	router, rts := startRouter(t, append([]string{ats.URL, ots.URL}, urls...), Options{})
	router.CheckHealth()
	router.CheckHealth() // a second round hears the same: no second demotion
	checkMergeMatchesSingleNode(t, urls, shards, router, rts)

	if fam := ringFamily(t, rts.URL); fam == nil || *fam != (HashFamily{Seed: testSeed, NumHash: testNumHash}) {
		t.Fatalf("the fleet's family: %+v, want the majority's %d/%d", fam, testSeed, testNumHash)
	}
	if alien.Index().Len() != 40 || old.Index().Len() != 0 {
		t.Fatalf("writes reached a shard outside the ring: %d and %d domains", alien.Index().Len(), old.Index().Len())
	}
	text := scrapeText(t, rts.URL)
	for _, want := range []string{
		`lshrouter_shard_demotions_total{shard="` + ats.URL + `"} 1`,
		`lshrouter_shard_demotions_total{shard="` + ots.URL + `"} 0`,
		`lshrouter_shard_dials_total{shard="` + ats.URL + `"} 0`,
		`lshrouter_shard_dials_total{shard="` + ots.URL + `"} 0`,
		"lshrouter_shards_live 2",
		"lshrouter_partial_responses_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestFamilyTieGoesToLowestNamedShard: two shards of two families, one each;
// the fleet takes the family of the shard whose name sorts first, and the
// other is held out.
func TestFamilyTieGoesToLowestNamedShard(t *testing.T) {
	urls, _ := startShardsAdvertising(t, []uint64{testSeed, testSeed + 1})
	router, rts := startRouter(t, urls, Options{})
	router.CheckHealth()
	var ring RingResponse
	getJSON(t, rts.URL+"/ring", &ring)
	first := ring.Shards[0] // /ring lists the shards by name
	if ring.Family == nil || first.Family == nil || *ring.Family != *first.Family {
		t.Fatalf("fleet family %+v, want that of the lowest-named shard %+v", ring.Family, first.Family)
	}
	if first.Share < 0.999 || ring.Shards[1].Share != 0 {
		t.Fatalf("shares %v and %v, want the whole ring on %s", first.Share, ring.Shards[1].Share, first.Name)
	}
}

// connGoroutines counts the goroutines that serve a connection: net/http's
// client keep-alive loops and a shard's record loops.
func connGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "net/http.(*persistConn).readLoop") +
		strings.Count(stacks, "net/http.(*persistConn).writeLoop") +
		strings.Count(stacks, "serve.(*Server).serveRecords")
}

// TestRouterCloseReleasesConnections: once a router that has sent writes,
// health probes and record legs is closed, no goroutine of its connections
// is left, while the shards it talked to are still up.
func TestRouterCloseReleasesConnections(t *testing.T) {
	urls, _ := startShards(t, 2)
	router, rts := startRouter(t, urls, Options{})
	router.CheckHealth()
	addVia(t, rts.URL, 10)
	for i := 0; i < 4; i++ {
		postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: windowValues(i)}, nil)
	}
	rts.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if n := connGoroutines(); n == 0 {
		t.Fatal("no connection goroutines before Close: the test proves nothing")
	}
	router.Close()
	deadline := time.Now().Add(5 * time.Second)
	for connGoroutines() > 0 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d connection goroutines outlive the closed router:\n%s", connGoroutines(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecordLegObservedAsHTTP: a routed query moves the shard's request and
// latency series exactly as the same JSON query posted to the shard does,
// and its sketched-request series by one, and the shard's access and
// slow-query lines for it carry the router's trace ID.
func TestRecordLegObservedAsHTTP(t *testing.T) {
	var shardLog lockedBuf
	logger := slog.New(slog.NewTextHandler(&shardLog, &slog.HandlerOptions{Level: slog.LevelDebug}))
	idx, err := lshensemble.BuildLive(nil, testLiveOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	h := lshensemble.NewHasher(testNumHash, testSeed)
	srv := serve.NewWith(idx, h, testSeed, "", serve.Options{Logger: logger, SlowQuery: time.Nanosecond})
	sts := httptest.NewServer(srv)
	t.Cleanup(sts.Close)
	router, rts := startRouter(t, []string{sts.URL}, Options{})
	router.CheckHealth()
	addVia(t, rts.URL, 20)

	// series reads the shard's request, latency and sketched-request counts.
	series := func() map[string]int {
		out := map[string]int{}
		for _, line := range strings.Split(scrapeText(t, sts.URL), "\n") {
			for _, fam := range []string{"lshensembled_http_requests_total", "lshensembled_http_request_seconds_count",
				"lshensembled_live_query_seconds_count", "lshensembled_sketched_requests_total", "lshensembled_http_in_flight"} {
				if strings.HasPrefix(line, fam) {
					i := strings.LastIndexByte(line, ' ')
					n, err := strconv.Atoi(line[i+1:])
					if err != nil {
						t.Fatal(err)
					}
					out[line[:i]] = n
				}
			}
		}
		return out
	}
	moved := func(before, after map[string]int) map[string]int {
		d := map[string]int{}
		for k, v := range after {
			if v != before[k] {
				d[k] = v - before[k]
			}
		}
		return d
	}
	for o, body := range map[wire.Op]string{
		wire.OpQuery: `{"values":["w0003","w0004","w0005"],"threshold":0.4}`,
		wire.OpTopK:  `{"values":["w0003","w0004","w0005"],"k":4}`,
		wire.OpBatch: `{"queries":[{"values":["w0003"]},{"values":["w0010","w0011"]}]}`,
	} {
		path := o.Path()
		id := "leg-trace-" + strings.ReplaceAll(path[1:], "/", "-")
		before := series()
		req, _ := http.NewRequest(http.MethodPost, rts.URL+path, strings.NewReader(body))
		req.Header.Set(obs.TraceHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		routed := moved(before, series())

		before = series()
		if code, answer := postRaw(t, sts.URL+path, body); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d %s", path, code, answer)
		}
		direct := moved(before, series())
		direct[`lshensembled_sketched_requests_total{op="`+o.String()+`"}`] = 1
		if len(routed) != 4 || !reflect.DeepEqual(routed, direct) {
			t.Fatalf("%s: a routed leg moved %v, the JSON request and one record %v", path, routed, direct)
		}
		out := shardLog.String()
		for _, msg := range []string{"msg=http", `msg="slow query"`} {
			if !containsLine(out, msg, "trace_id="+id) {
				t.Fatalf("%s: no %s line with trace_id=%s in the shard log:\n%s", path, msg, id, out)
			}
		}
	}
}

// containsLine reports whether one line of log holds both a and b.
func containsLine(log, a, b string) bool {
	for _, line := range strings.Split(log, "\n") {
		if strings.Contains(line, a) && strings.Contains(line, b) {
			return true
		}
	}
	return false
}

// TestRoutedAddStoresDirectAdd: adds, replacing adds and deletes sent
// through a router to one shard, and as JSON straight to another, get the
// same replaced, deleted and size answers, move the same request series on
// the shards and leave their indexes byte for byte the same.
func TestRoutedAddStoresDirectAdd(t *testing.T) {
	urls, shards := startShards(t, 2)
	_, rts := startRouter(t, urls[:1], Options{})
	for i := 0; i < 60; i++ {
		key := domainKey(i % 35)
		if i%6 == 5 {
			var routed RouterDeleteResponse
			var direct wire.DeleteResponse
			postJSON(t, rts.URL+"/delete", wire.DeleteRequest{Key: key}, &routed)
			postJSON(t, urls[1]+"/delete", wire.DeleteRequest{Key: key}, &direct)
			if routed.DeleteResponse != direct || routed.Partial {
				t.Fatalf("delete %s: routed %+v, direct %+v", key, routed, direct)
			}
			continue
		}
		values := append(windowValues(i), windowValues(i+3)...) // repeats, which the size must not count
		var routed RouterAddResponse
		var direct wire.AddResponse
		postJSON(t, rts.URL+"/add", wire.AddRequest{Key: key, Values: values}, &routed)
		postJSON(t, urls[1]+"/add", wire.AddRequest{Key: key, Values: values}, &direct)
		if routed.AddResponse != direct || routed.Partial || !sameStrings(routed.Shards, urls[:1]) {
			t.Fatalf("add %s: routed %+v, direct %+v", key, routed, direct)
		}
	}
	writeSeries := func(base string) string {
		var keep []string
		for _, line := range strings.Split(scrapeText(t, base), "\n") {
			if strings.HasPrefix(line, "lshensembled_http_requests_total") && (strings.Contains(line, `"add"`) || strings.Contains(line, `"delete"`)) {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if routed, direct := writeSeries(urls[0]), writeSeries(urls[1]); routed != direct || !strings.Contains(routed, `{code="2xx",endpoint="add"} 50`) {
		t.Fatalf("shard write series: routed\n%s\ndirect\n%s", routed, direct)
	}
	if a, b := shards[0].srv.Index().AppendBinary(nil), shards[1].srv.Index().AppendBinary(nil); !bytes.Equal(a, b) {
		t.Fatalf("the routed shard's index encodes to %d bytes unlike the direct one's %d", len(a), len(b))
	}
}

// TestRestartedShardRetriesWrite: a write whose pooled connection a restart
// closed is sent once more on a fresh dial, and the answer is that attempt's.
func TestRestartedShardRetriesWrite(t *testing.T) {
	urls, fronts, servers := startSwappable(t, 1)
	_, rts := startRouter(t, urls, Options{})
	add := wire.AddRequest{Key: "k", Values: windowValues(3)}
	for round, want := range []bool{false, true} {
		var got RouterAddResponse
		if code := postJSON(t, rts.URL+"/add", add, &got); code != http.StatusOK || got.Partial || got.Replaced != want {
			t.Fatalf("add %d after a restart: HTTP %d %+v", round, code, got)
		}
		fronts[0].swap(servers[0])
	}
	var del RouterDeleteResponse
	if code := postJSON(t, rts.URL+"/delete", wire.DeleteRequest{Key: "k"}, &del); code != http.StatusOK || del.Partial || !del.Deleted {
		t.Fatalf("delete after a restart: HTTP %d %+v", code, del)
	}
	text := scrapeText(t, rts.URL)
	for _, want := range []string{
		`lshrouter_shard_dials_total{shard="` + urls[0] + `"} 3`,
		`lshrouter_shard_errors_total{shard="` + urls[0] + `"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// fillPool dials n record connections to the router's only shard and puts
// them in its pool, as n concurrent legs would leave them.
func fillPool(t *testing.T, router *Router, n int) *Client {
	t.Helper()
	c := router.shards[0].client
	for i := 0; i < n; i++ {
		rc, err := c.dial(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		c.put(rc)
	}
	return c
}

// TestStaleFailureEmptiesPool: after a restart the first leg fails on a
// pooled connection, and that one failure closes every idle connection to
// the shard, so no later leg tries another.
func TestStaleFailureEmptiesPool(t *testing.T) {
	urls, fronts, servers := startSwappable(t, 1)
	router, rts := startRouter(t, urls, Options{})
	router.CheckHealth()
	c := fillPool(t, router, 4)
	fronts[0].swap(servers[0])
	var got RouterQueryResponse
	if code := postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: windowValues(1)}, &got); code != http.StatusOK || got.Partial {
		t.Fatalf("query after a restart: HTTP %d partial=%v", code, got.Partial)
	}
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	if idle != 1 {
		t.Fatalf("%d idle connections after the restart's first leg, want only the fresh one", idle)
	}
	if text := scrapeText(t, rts.URL); !strings.Contains(text, `lshrouter_shard_dials_total{shard="`+urls[0]+`"} 5`) {
		t.Errorf("want 4 pooled dials and one fresh one:\n%s", text)
	}
}

// TestIdlePoolAgesOut: a connection idle past maxIdleAge, which the shard is
// about to close, is closed instead of handed out, and the leg dials afresh.
func TestIdlePoolAgesOut(t *testing.T) {
	urls, _ := startShards(t, 1)
	router, rts := startRouter(t, urls, Options{})
	router.CheckHealth()
	c := fillPool(t, router, 2)
	c.mu.Lock()
	old := append([]*recordConn(nil), c.idle...)
	for _, rc := range c.idle {
		rc.idleSince = time.Now().Add(-maxIdleAge - time.Second)
	}
	c.mu.Unlock()
	if code := postJSON(t, rts.URL+"/query", wire.QueryRequest{Values: windowValues(1)}, nil); code != http.StatusOK {
		t.Fatalf("query: HTTP %d", code)
	}
	if text := scrapeText(t, rts.URL); !strings.Contains(text, `lshrouter_shard_dials_total{shard="`+urls[0]+`"} 3`) {
		t.Errorf("the leg did not dial afresh:\n%s", text)
	}
	for i, rc := range old {
		if _, err := rc.Write([]byte{0}); !errors.Is(err, net.ErrClosed) {
			t.Errorf("aged connection %d still open: %v", i, err)
		}
	}
}
