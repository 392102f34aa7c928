package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"lshensemble/internal/obs"
	"lshensemble/internal/wire"
)

// Client speaks the shard wire protocol (internal/wire's types) to one
// lshensembled instance: the router's pre-sketched queries and writes as
// records on a pool of record connections, everything else over HTTP. Every
// call takes a context, and the context is the only bound on how long an
// accepted request may take to answer: the router caps query, write and
// health legs with its per-shard deadline and lets /save and /compact run as
// long as the operator's request lives. The dial timeout bounds what a
// context cannot (a SYN blackhole), and a record connection's upgrade too.
//
// A record that fails on a pooled connection before the first byte of its
// answer (the shard restarted, or closed the connection idle) is sent once
// more on a fresh dial, and the pool is emptied: the other idle connections
// to that shard are as dead. That is safe for writes too: an add is an upsert
// of the same bytes and a delete of a key already gone leaves it gone, so a
// write's replaced or deleted flag is that of the attempt that answered.
type Client struct {
	base   string
	hc     *http.Client
	host   string // base's host:port, where record connections are dialed
	dialer *net.Dialer
	// dials counts the record connections dialed; the router points it at
	// the shard's series. Nil counts nothing.
	dials *obs.Counter

	mu     sync.Mutex
	idle   []*recordConn // the last one returned on top
	closed bool
}

// maxIdle is how many idle connections a client keeps per transport.
const maxIdle = 32

// maxIdleAge is how long a record connection may wait in the pool: well
// inside wire.RecordIdle, after which the shard has closed it.
const maxIdleAge = wire.RecordIdle * 2 / 3

// NewClient builds a client for one shard base URL ("http://host:port").
// timeout bounds connection establishment; per-request deadlines come from
// the caller's context.
func NewClient(base string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	dialer := &net.Dialer{Timeout: timeout}
	tr := &http.Transport{
		DialContext:         dialer.DialContext,
		MaxIdleConnsPerHost: maxIdle,
		IdleConnTimeout:     90 * time.Second,
	}
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{Transport: tr}, dialer: dialer}
	if u, err := url.Parse(c.base); err == nil {
		c.host = u.Host
		if u.Port() == "" {
			c.host = net.JoinHostPort(u.Hostname(), "80")
		}
	}
	return c
}

// Base returns the shard base URL the client was built with.
func (c *Client) Base() string { return c.base }

// Close releases the client's idle connections, record and HTTP alike. A
// call in flight finishes, and its record connection is closed after it
// instead of kept.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.dropIdle(time.Time{})
	c.hc.CloseIdleConnections()
}

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

// statusError is the *StatusError of a non-2xx answer whose body is body. A
// body that is not the envelope leaves the message empty.
func (c *Client) statusError(method, path string, status int, body io.Reader) *StatusError {
	var e wire.ErrorResponse
	_ = json.NewDecoder(io.LimitReader(body, 4096)).Decode(&e)
	return &StatusError{Shard: c.base, Method: method, Path: path, Status: status, Message: e.Error}
}

// do sends one JSON request over HTTP and decodes one JSON response.
// Non-2xx answers surface the shard's error envelope as a *StatusError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var rd io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("encoding %s request: %w", path, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
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
		return c.statusError(method, path, resp.StatusCode, resp.Body)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, wire.MaxRequestBody)).Decode(out); err != nil {
		return fmt.Errorf("shard %s: decoding %s response: %w", c.base, path, err)
	}
	return nil
}

// leg sends one pre-sketched query of shape o — body, its record, of rows
// rows — and decodes the answer frame into out, as wire.DecodeAnswer does.
func (c *Client) leg(ctx context.Context, o wire.Op, body []byte, rows int, out any) error {
	return c.record(ctx, o, body, func(answer []byte) error { return wire.DecodeAnswer(answer, rows, out) })
}

// write sends one write record of op o (wire.OpAdd or wire.OpDelete) and
// reports whether the shard replaced or deleted the key.
func (c *Client) write(ctx context.Context, o wire.Op, body []byte) (flag bool, err error) {
	err = c.record(ctx, o, body, func(answer []byte) (err error) {
		flag, err = wire.DecodeFlag(answer)
		return err
	})
	return flag, err
}

// record sends body as a record of op o and hands a 2xx answer to decode; a
// non-2xx answer is a *StatusError, as over HTTP. It takes an idle record
// connection or dials a new one, and gives it back only after a complete
// answer; any error closes it. A reused connection that fails before the
// answer's first byte is retried once on a fresh one, as the type's comment
// says, after the pool is emptied.
func (c *Client) record(ctx context.Context, o wire.Op, body []byte, decode func(answer []byte) error) error {
	rc := c.idleConn()
	for {
		reused := rc != nil
		if !reused {
			var err error
			if rc, err = c.dial(ctx); err != nil {
				return err
			}
		}
		status, answer, err := rc.exchange(ctx, o, body)
		switch {
		case err != nil:
		case status/100 != 2:
			err = c.statusError(http.MethodPost, o.Path(), status, bytes.NewReader(answer))
		default:
			if err = decode(answer); err != nil {
				err = fmt.Errorf("shard %s: decoding %s response: %w", c.base, o.Path(), err)
			}
		}
		if err == nil {
			// A cancel that came with the answer may still move the
			// deadline: such a connection is not handed out again.
			if ctx.Err() == nil {
				c.put(rc)
			} else {
				rc.Close()
			}
			return nil
		}
		rc.Close()
		var stale staleConn
		if !reused || !errors.As(err, &stale) || errors.Is(err, os.ErrDeadlineExceeded) || ctx.Err() != nil {
			return err
		}
		c.dropIdle(time.Time{})
		rc = nil
	}
}

// idleConn takes the most recently returned idle record connection, nil
// when there is none. Connections idle past maxIdleAge are closed first.
func (c *Client) idleConn() *recordConn {
	c.dropIdle(time.Now().Add(-maxIdleAge))
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.idle); n > 0 {
		rc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		return rc
	}
	return nil
}

// dropIdle closes the idle connections returned before cutoff; a zero cutoff
// closes them all. The pool is a stack, so they are at its bottom.
func (c *Client) dropIdle(cutoff time.Time) {
	c.mu.Lock()
	n := 0
	for n < len(c.idle) && (cutoff.IsZero() || c.idle[n].idleSince.Before(cutoff)) {
		n++
	}
	old := c.idle[:n:n]
	c.idle = c.idle[n:]
	c.mu.Unlock()
	for _, rc := range old {
		rc.Close()
	}
}

// put returns a connection to the pool, or closes it when the pool is full
// or the client closed.
func (c *Client) put(rc *recordConn) {
	rc.idleSince = time.Now()
	c.mu.Lock()
	keep := !c.closed && len(c.idle) < maxIdle
	if keep {
		c.idle = append(c.idle, rc)
	}
	c.mu.Unlock()
	if !keep {
		rc.Close()
	}
}

// dial opens a record connection: a TCP connection to the shard, upgraded
// under the dial timeout (or ctx's deadline, if sooner).
func (c *Client) dial(ctx context.Context) (*recordConn, error) {
	conn, err := c.dialer.DialContext(ctx, "tcp", c.host)
	if err != nil {
		return nil, err
	}
	if c.dials != nil {
		c.dials.Inc()
	}
	rc := &recordConn{Conn: conn, br: bufio.NewReader(conn)}
	deadline := time.Now().Add(c.dialer.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := rc.upgrade(ctx, deadline, c.host); err != nil {
		conn.Close()
		return nil, fmt.Errorf("shard %s: upgrading to %s: %w", c.base, wire.RecordProtocol, err)
	}
	return rc, nil
}

// recordConn is one upgraded connection to a shard and its buffers.
type recordConn struct {
	net.Conn
	br        *bufio.Reader
	hdr       []byte    // a request record's header
	buf       []byte    // the last answer's body
	idleSince time.Time // when it was last returned to the pool
}

// staleConn is an error before the first byte of an answer.
type staleConn struct{ error }

func (e staleConn) Unwrap() error { return e.error }

// guard bounds what follows by deadline (none when zero) and by ctx: a
// cancel moves the deadline into the past, which unblocks any read or write.
// The returned stop disarms the cancel.
func (rc *recordConn) guard(ctx context.Context, deadline time.Time) (stop func() bool) {
	rc.SetDeadline(deadline)
	return context.AfterFunc(ctx, func() { rc.SetDeadline(time.Unix(1, 0)) })
}

// upgrade asks the shard to turn the connection into a record connection.
func (rc *recordConn) upgrade(ctx context.Context, deadline time.Time, host string) error {
	defer rc.guard(ctx, deadline)()
	req := "GET " + wire.RecordPath + " HTTP/1.1\r\nHost: " + host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + wire.RecordProtocol + "\r\n\r\n"
	if _, err := io.WriteString(rc.Conn, req); err != nil {
		return err
	}
	resp, err := http.ReadResponse(rc.br, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}

// exchange writes one request record in one write and reads its answer
// record, under ctx. The answer's body is valid until the next exchange.
func (rc *recordConn) exchange(ctx context.Context, o wire.Op, body []byte) (int, []byte, error) {
	deadline, ok := ctx.Deadline()
	var timeout time.Duration
	if ok {
		if timeout = time.Until(deadline); timeout <= 0 {
			return 0, nil, context.DeadlineExceeded
		}
	}
	defer rc.guard(ctx, deadline)()
	rc.hdr = wire.AppendRecordHeader(rc.hdr[:0], o, obs.TraceID(ctx), timeout, len(body))
	bufs := net.Buffers{rc.hdr, body}
	if _, err := bufs.WriteTo(rc.Conn); err != nil {
		return 0, nil, staleConn{err}
	}
	if _, err := rc.br.Peek(1); err != nil {
		return 0, nil, staleConn{err}
	}
	status, answer, err := wire.ReadAnswerRecord(rc.br, rc.buf)
	rc.buf = answer
	return status, answer, err
}

// Add ingests one domain on the shard, in the JSON form: the shard sketches
// the values. The router sends its writes as add records instead; this is the
// typed call of a client talking to one shard (the benchmark's ladder times
// a shard's /add round trip with it).
func (c *Client) Add(ctx context.Context, req *wire.AddRequest) (wire.AddResponse, error) {
	var out wire.AddResponse
	err := c.do(ctx, http.MethodPost, "/add", req, &out)
	return out, err
}

// Query runs one containment query on the shard, in the JSON form. The
// router's own legs go out encoded once for all shards; this is the typed
// call of a client talking to one shard (the benchmark's ladder replays
// raw-value requests at a shard with it).
func (c *Client) Query(ctx context.Context, req *wire.QueryRequest) (wire.QueryResponse, error) {
	var out wire.QueryResponse
	err := c.do(ctx, http.MethodPost, "/query", req, &out)
	return out, err
}

// Health probes the shard's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
