package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"lshensemble/internal/obs"
	"lshensemble/internal/serve"
)

// Client speaks the shard wire protocol (internal/serve's types) to one
// lshensembled instance. Every call takes a context, and the context is
// the only bound on how long an accepted request may take to answer: the
// router caps query, write and health legs with its per-shard deadline and
// lets /save and /compact run as long as the operator's request lives. The
// transport's dial timeout bounds what a context cannot (a SYN blackhole).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for one shard base URL ("http://host:port").
// timeout bounds connection establishment; per-request deadlines come from
// the caller's context.
func NewClient(base string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: timeout}).DialContext,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{Transport: tr}}
}

// Base returns the shard base URL the client was built with.
func (c *Client) Base() string { return c.base }

// StatusError is a shard's non-2xx answer: the status and the message of its
// error envelope. The router tells a request every shard refused the same way
// (the request's fault, relayed as is) from shards that failed by it.
type StatusError struct {
	Shard, Method, Path string
	Status              int
	Message             string // the envelope's error text; empty when there was none
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("shard %s: %s %s: %s", e.Shard, e.Method, e.Path, e.Message)
	}
	return fmt.Sprintf("shard %s: %s %s: HTTP %d", e.Shard, e.Method, e.Path, e.Status)
}

// do sends one JSON request and decodes one JSON response. Non-2xx answers
// surface the shard's error envelope as a *StatusError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	if in == nil {
		return c.send(ctx, method, path, "", nil, 0, out)
	}
	b, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("encoding %s request: %w", path, err)
	}
	return c.send(ctx, method, path, "application/json", b, 0, out)
}

// send sends body, which it only reads, under contentType and decodes the
// answer into out in the form the Content-Type of the answer names: the
// answer frame of a query of rows rows (serve.DecodeAnswer), or JSON. A shard
// that answers a framed request in JSON is decoded like any other JSON answer.
func (c *Client) send(ctx context.Context, method, path, contentType string, body []byte, rows int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	// Propagate the router's trace ID so one request ID follows the call
	// from router access log to shard access log.
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		var e serve.ErrorResponse
		// A body that is not the envelope leaves the message empty.
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e)
		return &StatusError{Shard: c.base, Method: method, Path: path, Status: resp.StatusCode, Message: e.Error}
	}
	if out == nil {
		return nil
	}
	if resp.Header.Get("Content-Type") == serve.SketchedContentType {
		err = decodeFrame(resp, rows, out)
	} else {
		err = json.NewDecoder(io.LimitReader(resp.Body, serve.MaxRequestBody)).Decode(out)
	}
	if err != nil {
		return fmt.Errorf("shard %s: decoding %s response: %w", c.base, path, err)
	}
	return nil
}

// decodeFrame reads an answer frame whole and decodes it. The Content-Length
// only sizes the first buffer, and never past 1 MiB: it comes from outside.
func decodeFrame(resp *http.Response, rows int, out any) error {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(resp.ContentLength, 0), 1<<20)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, serve.MaxRequestBody)); err != nil {
		return err
	}
	return serve.DecodeAnswer(buf.Bytes(), rows, out)
}

// Add forwards one ingest to the shard.
func (c *Client) Add(ctx context.Context, req *serve.AddRequest) (serve.AddResponse, error) {
	var out serve.AddResponse
	err := c.do(ctx, http.MethodPost, "/add", req, &out)
	return out, err
}

// Delete forwards one delete to the shard.
func (c *Client) Delete(ctx context.Context, req *serve.DeleteRequest) (serve.DeleteResponse, error) {
	var out serve.DeleteResponse
	err := c.do(ctx, http.MethodPost, "/delete", req, &out)
	return out, err
}

// Query runs one containment query on the shard, in the JSON form. The
// router's own legs go through send with a body encoded once for all shards;
// this is the typed call of a client talking to one shard (the benchmark's
// ladder replays raw-value requests at a shard with it).
func (c *Client) Query(ctx context.Context, req *serve.QueryRequest) (serve.QueryResponse, error) {
	var out serve.QueryResponse
	err := c.do(ctx, http.MethodPost, "/query", req, &out)
	return out, err
}

// Stats fetches the shard's index shape.
func (c *Client) Stats(ctx context.Context) (serve.StatsResponse, error) {
	var out serve.StatsResponse
	err := c.do(ctx, http.MethodGet, "/stats", nil, &out)
	return out, err
}

// Compact triggers a full compaction on the shard.
func (c *Client) Compact(ctx context.Context) (serve.StatsResponse, error) {
	var out serve.StatsResponse
	err := c.do(ctx, http.MethodPost, "/compact", nil, &out)
	return out, err
}

// Save asks the shard to persist a snapshot.
func (c *Client) Save(ctx context.Context) (serve.SaveResponse, error) {
	var out serve.SaveResponse
	err := c.do(ctx, http.MethodPost, "/save", nil, &out)
	return out, err
}

// Health probes the shard's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
