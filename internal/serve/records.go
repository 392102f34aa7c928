package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"lshensemble/internal/obs"
	"lshensemble/internal/wire"
)

// A shard serves records (internal/wire/records.go has the layout) on the
// connections GET /records upgrades. A length past MaxRequestBody or an
// unknown op is answered with an error record, and the connection closes. A
// query whose index call its deadline cut off, or a record that arrives
// truncated, closes it without an answer; so does RecordIdle without one.

var switchingProtocols = []byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + wire.RecordProtocol + "\r\n\r\n")

// handleRecords upgrades the connection and serves records on it until it
// closes.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), wire.RecordProtocol) ||
		!strings.Contains(strings.ToLower(r.Header.Get("Connection")), "upgrade") {
		w.Header().Set("Upgrade", wire.RecordProtocol)
		wire.WriteRefusal(w, &wire.Refusal{Status: http.StatusUpgradeRequired,
			Err: fmt.Errorf("GET %s upgrades to %s", wire.RecordPath, wire.RecordProtocol)})
		return
	}
	s.recMu.Lock()
	open := s.closing.Err() == nil
	if open {
		s.records.Add(1)
	}
	s.recMu.Unlock()
	if !open {
		wire.WriteRefusal(w, &wire.Refusal{Status: http.StatusServiceUnavailable, Err: errors.New("record connections are closed")})
		return
	}
	defer s.records.Done()
	// Hijacking clears the deadlines the server set for the request.
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		wire.WriteRefusal(w, &wire.Refusal{Status: http.StatusInternalServerError,
			Err: fmt.Errorf("upgrading to %s: %w", wire.RecordProtocol, err)})
		return
	}
	defer conn.Close()
	stop := context.AfterFunc(s.closing, func() { conn.Close() })
	defer stop()
	if _, err := conn.Write(switchingProtocols); err != nil {
		return
	}
	s.serveRecords(conn, brw.Reader)
}

// serveRecords answers the request records read from br on conn, one at a
// time, until the connection closes or is to be closed.
func (s *Server) serveRecords(conn net.Conn, br *bufio.Reader) {
	var body, out []byte
	for {
		conn.SetReadDeadline(time.Now().Add(wire.RecordIdle))
		rec, err := wire.ReadRecord(br, body)
		body = rec.Body
		var ref *wire.Refusal
		if errors.As(err, &ref) {
			conn.SetWriteDeadline(time.Now().Add(wire.RecordIdle))
			conn.Write(wire.AppendAnswerRecord(out[:0], nil, ref))
			return
		}
		if err != nil {
			return
		}
		deadline := time.Now().Add(wire.RecordIdle)
		if rec.Timeout > 0 {
			deadline = time.Now().Add(rec.Timeout)
		}
		if out = s.serveRecord(&rec, deadline, out[:0]); out == nil {
			return
		}
		conn.SetWriteDeadline(deadline)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// serveRecord answers one request record, observed under its shape's HTTP
// series, and appends the answer record to out. It returns nil when the
// deadline or CloseRecords cut a query's index call off.
func (s *Server) serveRecord(rec *wire.Record, deadline time.Time, out []byte) []byte {
	ep := s.endpoints[rec.Op]
	start := ep.Begin()
	id := obs.ResolveTraceID(rec.Trace)
	ctx := obs.WithTraceID(s.closing, id)
	if rec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	if rec.Op < numOps {
		s.sketched[rec.Op].Inc()
	}
	var resp any
	req, err := wire.DecodeRecord(rec.Body, rec.Op, s.seed, s.idx.Options().NumHash)
	if err == nil {
		resp, err = s.answer(ctx, &req)
	}
	status := http.StatusOK
	switch {
	case err != nil:
		status = http.StatusBadRequest
		out = wire.AppendAnswerRecord(out, nil, err)
	case resp != nil:
		out = wire.AppendAnswerRecord(out, resp, nil)
	default:
		out = nil
	}
	ep.End(ctx, id, http.MethodPost, status, int64(max(len(out)-wire.AnswerHeader, 0)), start)
	return out
}

// CloseRecords closes the record connections, cuts off the index calls
// running on them and waits for their loops to return; upgrades after it are
// refused. http.Server's Shutdown and Close do not see a hijacked
// connection, so a daemon calls this after Shutdown and before it closes the
// index.
func (s *Server) CloseRecords() {
	s.recMu.Lock()
	s.endRecords()
	s.recMu.Unlock()
	s.records.Wait()
}
