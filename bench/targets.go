package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	"lshensemble"
	"lshensemble/internal/cluster"
	"lshensemble/internal/serve"
)

// nproc is the number of load workers and keep-alive connections: the cores
// the harness, the router and the shards all share. Never more.
var nproc = runtime.GOMAXPROCS(0)

// liveOptions are the daemon's flag defaults (m = 256, 16 partitions, rMax 8,
// max-segments 8, result-cache 1024); only the seal threshold shrinks, and
// only at the -quick scale.
func liveOptions(seal int) lshensemble.LiveOptions {
	return lshensemble.LiveOptions{
		Options:         lshensemble.Options{NumHash: numHash, RMax: 8, NumPartitions: 16},
		SealThreshold:   seal,
		MaxSegments:     8,
		ResultCacheSize: 1024,
	}
}

// quietLogger keeps the servers' 5xx and slow-query lines (they would be
// findings) and drops the rest.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
}

// node is one daemon: a live index behind serve's handler set on a real
// loopback TCP listener, in this process.
type node struct {
	idx  *lshensemble.LiveIndex
	srv  *serve.Server
	hs   *http.Server
	url  string
	snap string
	done chan struct{}
}

// startNode serves idx the way cmd/lshensembled does (metrics on, slow-query
// log at 1 s), minus flag parsing and signal handling.
func startNode(idx *lshensemble.LiveIndex, h *lshensemble.Hasher, snapshotPath, addr string) (*node, error) {
	srv := serve.NewWith(idx, h, hashSeed, snapshotPath, serve.Options{Logger: quietLogger(), SlowQuery: time.Second})
	hs, url, done, err := listen(srv, addr)
	if err != nil {
		return nil, err
	}
	return &node{idx: idx, srv: srv, hs: hs, url: url, snap: snapshotPath, done: done}, nil
}

// listen serves handler on addr, or on an ephemeral loopback port when addr
// is empty or taken, and returns once the listener is accepting.
func listen(handler http.Handler, addr string) (*http.Server, string, chan struct{}, error) {
	var ln net.Listener
	var err error
	if addr != "" {
		ln, err = net.Listen("tcp", addr)
	}
	if ln == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return nil, "", nil, fmt.Errorf("opening loopback listener: %w", err)
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

// stop closes the listener and its connections, waits for the serve loop to
// return, and stops the index's compactor.
func (n *node) stop() {
	_ = n.hs.Close()
	<-n.done
	n.idx.Close()
}

// fleet is a router in front of shard nodes, all on loopback.
type fleet struct {
	shards []*node
	router *cluster.Router
	hs     *http.Server
	url    string
	done   chan struct{}
}

func startFleet(shards []*node) (*fleet, error) {
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.url
	}
	r, err := cluster.NewRouter(urls, cluster.Options{Logger: quietLogger()})
	if err != nil {
		return nil, err
	}
	r.Start()
	hs, url, done, err := listen(r, "")
	if err != nil {
		r.Close()
		return nil, err
	}
	return &fleet{shards: shards, router: r, hs: hs, url: url, done: done}, nil
}

func (f *fleet) stop() {
	_ = f.hs.Close()
	<-f.done
	f.router.Close()
	for _, s := range f.shards {
		s.stop()
	}
}

// httpClient is the load generator's side of the wire: pre-encoded request
// bodies out, decoded answers back, over at most nproc keep-alive
// connections.
type httpClient struct {
	base string
	hc   *http.Client
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxIdleConns: nproc, MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc}
	return &httpClient{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// post sends body and decodes a 2xx answer into out. It returns the answer's
// size, and an error for a transport failure or a non-2xx status.
func (c *httpClient) post(path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return len(raw), fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return len(raw), fmt.Errorf("POST %s: decoding answer: %w", path, err)
		}
	}
	return len(raw), nil
}

// target is the system under load: a router or the library. Each
// method performs one op and checks its answer.
type target interface {
	query(worker, i int) outcome // pool index
	topk(i int) outcome
	batch(i int) outcome // batch index
	// answer returns the threshold matches of corpus domain d, for the
	// quality check, whose sample is larger than the pool.
	answer(d int) ([]string, bool)
}

// queryInputs are a workload's query-side inputs, built once in set-up.
type queryInputs struct {
	keys    []string  // keys[i]: own key of pool query i
	batches [][]int32 // batches[j]: pool indices of batch j's rows
	domain  []int     // domain[i]: corpus index of pool query i
	quality []int     // corpus indices of the quality check's queries
}

// --- HTTP target (the router) ---

// answerBody is the union of the fields the harness reads from any answer;
// the router's extra fields (partial, failed) decode here too, a daemon's
// answers leave them zero.
type answerBody struct {
	Matches json.RawMessage `json:"matches"`
	Rows    []struct {
		Matches []string `json:"matches"`
	} `json:"rows"`
	Partial bool `json:"partial"`
}

type httpTarget struct {
	c         *httpClient
	in        *queryInputs
	strs      func(domain int) []string
	queryBody [][]byte
	topkBody  [][]byte
	batchBody [][]byte
}

func (t *httpTarget) query(_, i int) outcome {
	got, partial, err := t.matches("/query", t.queryBody[i])
	return outcome{ok: err == nil && slices.Contains(got, t.in.keys[i]), partial: partial}
}

func (t *httpTarget) answer(d int) ([]string, bool) {
	got, _, err := t.matches("/query", mustJSON(&serve.QueryRequest{Values: t.strs(d), Threshold: threshold}))
	return got, err == nil
}

func (t *httpTarget) matches(path string, body []byte) ([]string, bool, error) {
	var a answerBody
	if _, err := t.c.post(path, body, &a); err != nil {
		return nil, false, err
	}
	var got []string
	if err := json.Unmarshal(a.Matches, &got); err != nil {
		return nil, a.Partial, err
	}
	return got, a.Partial, nil
}

// topk accepts a non-empty ranking in descending score order. The own key is
// not required: supersets tie with it at estimated containment 1.
func (t *httpTarget) topk(i int) outcome {
	var a answerBody
	if _, err := t.c.post("/query/topk", t.topkBody[i], &a); err != nil {
		return outcome{}
	}
	var ranked []serve.TopKMatch
	if err := json.Unmarshal(a.Matches, &ranked); err != nil || len(ranked) == 0 {
		return outcome{partial: a.Partial}
	}
	for j := 1; j < len(ranked); j++ {
		if ranked[j].EstContainment > ranked[j-1].EstContainment {
			return outcome{partial: a.Partial}
		}
	}
	return outcome{ok: true, partial: a.Partial}
}

func (t *httpTarget) batch(j int) outcome {
	var a answerBody
	if _, err := t.c.post("/query/batch", t.batchBody[j], &a); err != nil {
		return outcome{}
	}
	rows := t.in.batches[j]
	if len(a.Rows) != len(rows) {
		return outcome{partial: a.Partial}
	}
	for r, qi := range rows {
		if !slices.Contains(a.Rows[r].Matches, t.in.keys[qi]) {
			return outcome{partial: a.Partial}
		}
	}
	return outcome{ok: true, partial: a.Partial}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the harness's own request structs reach here
	}
	return b
}

// --- library target ---

type libTarget struct {
	idx     *lshensemble.LiveIndex
	in      *queryInputs
	queries []lshensemble.DomainRecord // pool query i, pre-sketched
	recs    []lshensemble.DomainRecord // recs[d]: indexed corpus domain d, sketched
	batchQ  [][]lshensemble.BatchQuery // batch j, pre-assembled
	// scratch[worker] is reused across calls: with it the append-style query
	// path allocates nothing, which is how a serving loop would call it.
	scratch [][]string
}

func (t *libTarget) queryInto(dst []string, i int) []string {
	q := &t.queries[i]
	dst, _ = t.idx.QueryAppendContext(context.Background(), dst[:0], q.Sig, q.Size, threshold)
	return dst
}

func (t *libTarget) query(worker, i int) outcome {
	t.scratch[worker] = t.queryInto(t.scratch[worker], i)
	return outcome{ok: slices.Contains(t.scratch[worker], t.in.keys[i])}
}

func (t *libTarget) answer(d int) ([]string, bool) {
	q := &t.recs[d]
	got, err := t.idx.QueryAppendContext(context.Background(), nil, q.Sig, q.Size, threshold)
	return got, err == nil
}

func (t *libTarget) topk(i int) outcome {
	q := &t.queries[i]
	ranked := t.idx.QueryTopK(q.Sig, q.Size, topK)
	if len(ranked) == 0 {
		return outcome{}
	}
	for j := 1; j < len(ranked); j++ {
		if ranked[j].EstContainment > ranked[j-1].EstContainment {
			return outcome{}
		}
	}
	return outcome{ok: true}
}

func (t *libTarget) batch(j int) outcome {
	rows := t.idx.QueryBatch(t.batchQ[j], 0)
	for r, qi := range t.in.batches[j] {
		if !slices.Contains(rows[r], t.in.keys[qi]) {
			return outcome{}
		}
	}
	return outcome{ok: true}
}

// waitIdle blocks until idx's background compactor has nothing left to do:
// the buffer is under the seal threshold and the segment count within bounds.
// Pacing the preload on it makes the segment layout a function of the inputs,
// not of how the compactor happened to be scheduled.
func waitIdle(idx *lshensemble.LiveIndex) {
	o := idx.Options()
	for {
		st := idx.Stats()
		if st.Buffered < o.SealThreshold && len(st.Segments) <= o.MaxSegments {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}
