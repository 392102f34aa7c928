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

// Client speaks the shard wire protocol (internal/serve's JSON types) to
// one lshensembled instance. Every call takes a context, and the context is
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

// do sends one JSON request and decodes one JSON response. Non-2xx answers
// surface the shard's error envelope.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("encoding %s request: %w", path, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
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
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("shard %s: %s %s: %s", c.base, method, path, e.Error)
		}
		return fmt.Errorf("shard %s: %s %s: HTTP %d", c.base, method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, serve.MaxRequestBody)).Decode(out); err != nil {
		return fmt.Errorf("shard %s: decoding %s response: %w", c.base, path, err)
	}
	return nil
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

// Query runs one containment query on the shard.
func (c *Client) Query(ctx context.Context, req *serve.QueryRequest) (serve.QueryResponse, error) {
	var out serve.QueryResponse
	err := c.do(ctx, http.MethodPost, "/query", req, &out)
	return out, err
}

// TopK runs one ranked query on the shard.
func (c *Client) TopK(ctx context.Context, req *serve.TopKRequest) (serve.TopKResponse, error) {
	var out serve.TopKResponse
	err := c.do(ctx, http.MethodPost, "/query/topk", req, &out)
	return out, err
}

// Batch runs one query batch on the shard.
func (c *Client) Batch(ctx context.Context, req *serve.BatchRequest) (serve.BatchResponse, error) {
	var out serve.BatchResponse
	err := c.do(ctx, http.MethodPost, "/query/batch", req, &out)
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
