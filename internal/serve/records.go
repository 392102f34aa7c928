package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"time"

	"lshensemble"
	"lshensemble/internal/minhash"
	"lshensemble/internal/obs"
)

// --- record connections ---
//
// GET /records with "Connection: Upgrade" and "Upgrade: lshensemble-records"
// turns an HTTP/1.1 connection into a record connection (101 Switching
// Protocols). It then carries pre-sketched queries and writes, one at a time,
// each one request record and one answer record, all integers little-endian:
//
//	request  uint8   op: 0 /query, 1 /query/topk, 2 /query/batch, 3 /add,
//	                 4 /delete (Op)
//	         uint8   n, then n bytes: the trace ID (X-Request-Id's rules)
//	         int64   the nanoseconds the asker waits for the answer; ≤ 0
//	                 waits as long as the connection lives
//	         uint32  length, then the body: AppendSketched's frame for a
//	                 query, an add record or a delete record
//	answer   uint16  status: 200, or the 4xx an HTTP request would get
//	         uint32  length, then the body: on 200 the answer frame to a
//	                 query, one byte to a write (1: the key was replaced or
//	                 deleted, 0: it was not indexed); the JSON error envelope
//	                 otherwise
//
// The body and the answer are the bytes the framed form carries over HTTP.
// The framed form of a write, its record, is a domain the asker has sketched
// already, or the key to delete, each field behind a uint32 length:
//
//	add      8 bytes      the hash-family seed, uint64
//	         8 bytes      the domain's size (distinct values), int64 > 0
//	         n bytes      the key, n > 0
//	         8·num_hash   the signature, uint64 words ≤ 2^61−1
//	delete   n bytes      the key, n > 0
//
// An add record is checked as a framed query is (the seed, the word count,
// every word) and then as the JSON /add is, in its words; the index stores
// exactly the record the JSON /add of the same values would have sketched.
// A length past MaxRequestBody or an unknown op is answered with an error
// record, and the connection closes. A query whose index call its deadline
// cut off, or a record that arrives truncated, closes it without an answer;
// so does RecordIdle without a record.

const (
	// RecordPath is the route that upgrades to a record connection.
	RecordPath = "/records"
	// RecordProtocol is the Upgrade token of a record connection.
	RecordProtocol = "lshensemble-records"

	// RecordIdle closes a record connection that waits this long for a
	// record, or for its answer to be read.
	RecordIdle = 90 * time.Second
	// answerHeader is an answer record's status and length.
	answerHeader = 2 + 4
)

var switchingProtocols = []byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + RecordProtocol + "\r\n\r\n")

// AppendRecordHeader appends the header of a request record to dst: op,
// trace ID, timeout and the length n of the body that follows it.
func AppendRecordHeader(dst []byte, o Op, traceID string, timeout time.Duration, n int) []byte {
	traceID = traceID[:min(len(traceID), 255)]
	dst = append(dst, byte(o), byte(len(traceID)))
	dst = append(dst, traceID...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(timeout))
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// ReadAnswerRecord reads one answer record from br: its status and its body,
// read into buf's storage. A length past MaxRequestBody is an error.
func ReadAnswerRecord(br *bufio.Reader, buf []byte) (int, []byte, error) {
	var h [answerHeader]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return 0, buf, err
	}
	status := int(binary.LittleEndian.Uint16(h[:]))
	n := binary.LittleEndian.Uint32(h[2:])
	if n > MaxRequestBody {
		return status, buf, fmt.Errorf("answer record of %d bytes, over the %d-byte limit", n, MaxRequestBody)
	}
	buf, err := readN(br, buf, int(n))
	return status, buf, err
}

// readN reads exactly n bytes from br into buf's storage. The buffer grows
// with what arrives, so a length from outside allocates at most 64 KiB
// before its bytes are there.
func readN(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 64<<10)))
		}
		m, err := br.Read(buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// record is one request record as read.
type record struct {
	op      Op
	trace   string
	timeout time.Duration
	body    []byte
}

// refusal is a request record's header the connection answers with an error
// record before it closes.
type refusal struct{ error }

// readRecord reads one request record, its body into body's storage. A
// header it refuses is a refusal; any other error is the connection's own
// (io.EOF: it closed between records).
func readRecord(br *bufio.Reader, body []byte) (record, error) {
	var h [2]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return record{body: body}, err
	}
	if Op(h[0]) >= numRecordOps {
		return record{body: body}, refusal{fmt.Errorf("unknown record op %d", h[0])}
	}
	var rest [255 + 8 + 4]byte
	tail := rest[:int(h[1])+8+4]
	if _, err := io.ReadFull(br, tail); err != nil {
		return record{body: body}, err
	}
	rec := record{op: Op(h[0]), trace: string(tail[:h[1]])}
	tail = tail[h[1]:]
	rec.timeout = time.Duration(binary.LittleEndian.Uint64(tail))
	n := binary.LittleEndian.Uint32(tail[8:])
	if n > MaxRequestBody {
		return record{body: body}, refusal{fmt.Errorf("reading request: record body of %d bytes, over the %d-byte limit", n, MaxRequestBody)}
	}
	var err error
	rec.body, err = readN(br, body, int(n))
	return rec, err
}

// handleRecords upgrades the connection and serves records on it until it
// closes.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), RecordProtocol) ||
		!strings.Contains(strings.ToLower(r.Header.Get("Connection")), "upgrade") {
		w.Header().Set("Upgrade", RecordProtocol)
		WriteError(w, http.StatusUpgradeRequired, fmt.Errorf("GET %s upgrades to %s", RecordPath, RecordProtocol))
		return
	}
	s.recMu.Lock()
	open := s.closing.Err() == nil
	if open {
		s.records.Add(1)
	}
	s.recMu.Unlock()
	if !open {
		WriteError(w, http.StatusServiceUnavailable, errors.New("record connections are closed"))
		return
	}
	defer s.records.Done()
	// Hijacking clears the deadlines the server set for the request.
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("upgrading to %s: %w", RecordProtocol, err))
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
		conn.SetReadDeadline(time.Now().Add(RecordIdle))
		rec, err := readRecord(br, body)
		body = rec.body
		var ref refusal
		if errors.As(err, &ref) {
			conn.SetWriteDeadline(time.Now().Add(RecordIdle))
			conn.Write(appendErrorRecord(out[:0], http.StatusBadRequest, ref.error))
			return
		}
		if err != nil {
			return
		}
		deadline := time.Now().Add(RecordIdle)
		if rec.timeout > 0 {
			deadline = time.Now().Add(rec.timeout)
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

// serveRecord answers one request record as the framed HTTP request with its
// body is answered, observed under the same series, and appends the answer
// record to out. It returns nil when the
// deadline or CloseRecords cut a query's index call off.
func (s *Server) serveRecord(rec *record, deadline time.Time, out []byte) []byte {
	ep := s.endpoints[rec.op]
	start := ep.Begin()
	id := obs.ResolveTraceID(rec.trace)
	ctx := obs.WithTraceID(s.closing, id)
	if rec.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	var resp any
	q, sigs, err := s.decodeFramed(rec.body, rec.op)
	if err == nil {
		resp, err = ops[rec.op](s, ctx, &q, sigs)
	}
	status := http.StatusOK
	switch {
	case err != nil:
		status = http.StatusBadRequest
		out = appendErrorRecord(out, status, err)
	case resp != nil:
		out = appendAnswer(append(out, make([]byte, answerHeader)...), resp)
		sealAnswer(out, status)
	default:
		out = nil
	}
	ep.End(ctx, id, http.MethodPost, status, int64(max(len(out)-answerHeader, 0)), start)
	return out
}

// appendErrorRecord appends an answer record of status carrying err in the
// JSON error envelope, the bytes WriteError writes.
func appendErrorRecord(out []byte, status int, err error) []byte {
	b, _ := json.Marshal(ErrorResponse{Error: err.Error()})
	out = append(append(append(out, make([]byte, answerHeader)...), b...), '\n')
	sealAnswer(out, status)
	return out
}

// sealAnswer writes the header of the answer record out holds: its status
// and the length of the body after it.
func sealAnswer(out []byte, status int) {
	binary.LittleEndian.PutUint16(out, uint16(status))
	binary.LittleEndian.PutUint32(out[2:], uint32(len(out)-answerHeader))
}

// AppendAddRecord appends the add record of rec, sketched under seed, to dst.
func AppendAddRecord(dst []byte, seed uint64, rec lshensemble.DomainRecord) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(le.AppendUint32(dst, 8), seed)
	dst = le.AppendUint64(le.AppendUint32(dst, 8), uint64(rec.Size))
	dst = le.AppendUint32(AppendDeleteRecord(dst, rec.Key), uint32(8*len(rec.Sig)))
	for _, v := range rec.Sig {
		dst = le.AppendUint64(dst, v)
	}
	return dst
}

// AppendDeleteRecord appends the delete record of key to dst.
func AppendDeleteRecord(dst []byte, key string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(key))), key...)
}

// decodeWrite parses the write record of op o for a shard whose family is
// (seed, numHash) into what the JSON form reads to: the key and, for an add,
// one row of the record's size and its signature. A field that overruns the
// body, bytes after the last one, another seed, a signature of another
// length or a word no hash of the family can produce is an error; what the
// key and size must be is for the JSON handlers' checks.
func decodeWrite(body []byte, o Op, seed uint64, numHash int) (Query, []lshensemble.Signature, error) {
	f := make([][]byte, 4) // seed, size, key, signature; a delete's key alone
	if o == OpDelete {
		f = f[:1]
	}
	for i := range f {
		if len(body) < 4 || uint64(binary.LittleEndian.Uint32(body)) > uint64(len(body)-4) {
			return Query{}, nil, fmt.Errorf("write record field %d overruns the %d bytes left", i, len(body))
		}
		n := 4 + binary.LittleEndian.Uint32(body)
		f[i], body = body[4:n], body[n:]
	}
	switch {
	case len(body) > 0:
		return Query{}, nil, fmt.Errorf("%d bytes after the write record", len(body))
	case o == OpDelete:
		return Query{Rows: []QueryRow{{}}, Key: string(f[0])}, nil, nil
	case len(f[0]) != 8 || len(f[1]) != 8:
		return Query{}, nil, fmt.Errorf("add record seed of %d bytes and size of %d, want 8 each", len(f[0]), len(f[1]))
	case binary.LittleEndian.Uint64(f[0]) != seed:
		return Query{}, nil, fmt.Errorf("sketched with hash seed %d, this shard's is %d (signatures would be incomparable)", binary.LittleEndian.Uint64(f[0]), seed)
	case len(f[3]) != 8*numHash:
		return Query{}, nil, fmt.Errorf("signature of %d bytes, want %d words × 8", len(f[3]), numHash)
	}
	size := int64(binary.LittleEndian.Uint64(f[1]))
	if int64(int(size)) != size {
		return Query{}, nil, fmt.Errorf("size %d out of range", size)
	}
	sig := make(lshensemble.Signature, numHash)
	for i := range sig {
		if sig[i] = binary.LittleEndian.Uint64(f[3][8*i:]); sig[i] > minhash.MersennePrime {
			return Query{}, nil, fmt.Errorf("signature word %d is %d, beyond the hash range", i, sig[i])
		}
	}
	return Query{Rows: []QueryRow{{Size: int(size)}}, Key: string(f[2])}, []lshensemble.Signature{sig}, nil
}

// DecodeFlag parses the answer to a write record: one byte, 1 when the key
// was replaced or deleted.
func DecodeFlag(answer []byte) (bool, error) {
	if len(answer) != 1 || answer[0] > 1 {
		return false, fmt.Errorf("write answer of %d bytes, want one 0 or 1", len(answer))
	}
	return answer[0] == 1, nil
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
