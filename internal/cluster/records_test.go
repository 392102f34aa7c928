package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
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
)

// readLeg reads one request record: its op, trace ID and body.
func readLeg(br *bufio.Reader) (serve.Op, string, []byte, error) {
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
	return serve.Op(h[0]), string(rest[:h[1]]), body, err
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
	io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+serve.RecordProtocol+"\r\n\r\n")
	return conn, brw.Reader
}

// recordFront fronts a real shard: it serves /records itself and everything
// else through the shard. Each request record it reads off a record
// connection is kept in legs and answered with what the shard answers the
// same frame posted over HTTP, passed through edit when set. While hold is
// set it answers nothing: it reads the record, says so on held, and waits
// for the router to close the connection, which it reports on closed.
type recordFront struct {
	t        *testing.T
	shard    http.Handler
	edit     func(status int, answer []byte) (int, []byte)
	hold     atomic.Bool
	held     chan struct{}
	closed   chan struct{}
	upgrades atomic.Int64

	mu   sync.Mutex
	legs [][]byte
}

func newRecordFront(t *testing.T, shard http.Handler) (*recordFront, string) {
	f := &recordFront{t: t, shard: shard, held: make(chan struct{}, 8), closed: make(chan struct{}, 8)}
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return f, ts.URL
}

func (f *recordFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != serve.RecordPath {
		f.shard.ServeHTTP(w, r)
		return
	}
	f.upgrades.Add(1)
	conn, br := upgrade(f.t, w)
	if conn == nil {
		return
	}
	defer conn.Close()
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
		req := httptest.NewRequest(http.MethodPost, op.Path(), bytes.NewReader(body))
		req.Header.Set("Content-Type", serve.SketchedContentType)
		req.Header.Set(obs.TraceHeader, trace)
		rr := httptest.NewRecorder()
		f.shard.ServeHTTP(rr, req)
		status, answer := rr.Code, rr.Body.Bytes()
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
		if code := postJSON(t, rts.URL+"/query", serve.QueryRequest{Values: windowValues(4), Threshold: 0.5}, &got); code != http.StatusOK || got.Partial {
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
	query := serve.QueryRequest{Values: windowValues(3), Threshold: 0.5}

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

// TestOldShardKeepsFleetOnRawLegs: a live shard whose /stats does not
// advertise record connections leaves the fleet's family unknown; every
// query goes out raw over HTTP, no record connection is dialed, and the
// fleet answers exactly like one node.
func TestOldShardKeepsFleetOnRawLegs(t *testing.T) {
	urls, shards := startShards(t, 1)
	old := newShardServer(t, testSeed)
	ots := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case serve.RecordPath:
			http.NotFound(w, r)
		case "/stats":
			rr := httptest.NewRecorder()
			old.ServeHTTP(rr, r)
			var st map[string]any
			if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
				t.Error(err)
			}
			delete(st, "records")
			serve.WriteJSON(w, rr.Code, st)
		default:
			old.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(ots.Close)
	urls = append(urls, ots.URL)
	shards = append(shards, &testShard{ts: ots, srv: old})
	router, rts := startRouter(t, urls, Options{})
	router.CheckHealth()
	if fam := ringFamily(t, rts.URL); fam.State != "unknown" {
		t.Fatalf("family beside an old shard: %+v, want unknown", fam)
	}
	checkMergeMatchesSingleNode(t, urls, shards, router, rts)
	text := scrapeText(t, rts.URL)
	for _, want := range []string{`lshrouter_scatter_total{form="sketched"} 0`, `lshrouter_partial_responses_total 0`} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	for _, u := range urls {
		if want := `lshrouter_shard_dials_total{shard="` + u + `"} 0`; !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
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
		postJSON(t, rts.URL+"/query", serve.QueryRequest{Values: windowValues(i)}, nil)
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

// TestRecordLegObservedAsHTTP: a routed query moves the shard's request,
// latency and framed-request series exactly as the same frame posted over
// HTTP does, and the shard's access and slow-query lines for it carry the
// router's trace ID.
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

	// series reads the shard's request, latency and framed-request counts.
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
	for path, body := range map[string]string{
		"/query":       `{"values":["w0003","w0004","w0005"],"threshold":0.4}`,
		"/query/topk":  `{"values":["w0003","w0004","w0005"],"k":4}`,
		"/query/batch": `{"queries":[{"values":["w0003"]},{"values":["w0010","w0011"]}]}`,
	} {
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
		resp, err = http.Post(sts.URL+path, serve.SketchedContentType, bytes.NewReader(jsonLeg(t, path, []byte(body), h, testSeed)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		direct := moved(before, series())
		if len(routed) != 4 || !reflect.DeepEqual(routed, direct) {
			t.Fatalf("%s: a routed leg moved %v, the framed HTTP request %v", path, routed, direct)
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
