package serve

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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
//	         uint32  length, then the body, laid out below
//	answer   uint16  status: 200, or the 4xx an HTTP request would get
//	         uint32  length, then the body: on 200 the answer frame to a
//	                 query (serve.go's wire types), one byte to a write (1:
//	                 the key was replaced or deleted, 0: it was not indexed);
//	                 the JSON error envelope otherwise
//
// A body is a request its asker has sketched already: fields, each behind a
// uint32 length. The seed (uint64), a threshold (float64 bits), a size, k
// and workers (int64) are 8 bytes each; a signature is num_hash uint64
// words, each ≤ 2^61−1:
//
//	query    seed, threshold, size, signature
//	topk     seed, k, size, signature
//	batch    seed, workers, then per row: threshold, size, signature
//	add      seed, size, the key (n > 0 bytes), signature
//	delete   the key
//
// The seed is the hash family's, sizes are distinct values (> 0), k and
// workers are as in the JSON form, and a batch has at least one row. A body
// is checked as a whole (decodeRecord) and then as the JSON form of its
// shape is, in its words: the index answers a query, or stores an add,
// exactly as it does the JSON request of the same values.
//
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

// badHeader is a request record's header the connection answers with an error
// record before it closes.
type badHeader struct{ error }

// readRecord reads one request record, its body into body's storage. A
// header it refuses is a badHeader; any other error is the connection's own
// (io.EOF: it closed between records).
func readRecord(br *bufio.Reader, body []byte) (record, error) {
	var h [2]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return record{body: body}, err
	}
	if Op(h[0]) >= numRecordOps {
		return record{body: body}, badHeader{fmt.Errorf("unknown record op %d", h[0])}
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
		return record{body: body}, badHeader{fmt.Errorf("reading request: record body of %d bytes, over the %d-byte limit", n, MaxRequestBody)}
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
		writeError(w, http.StatusUpgradeRequired, fmt.Errorf("GET %s upgrades to %s", RecordPath, RecordProtocol))
		return
	}
	s.recMu.Lock()
	open := s.closing.Err() == nil
	if open {
		s.records.Add(1)
	}
	s.recMu.Unlock()
	if !open {
		writeError(w, http.StatusServiceUnavailable, errors.New("record connections are closed"))
		return
	}
	defer s.records.Done()
	// Hijacking clears the deadlines the server set for the request.
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("upgrading to %s: %w", RecordProtocol, err))
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
		var ref badHeader
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

// serveRecord answers one request record, observed under its shape's HTTP
// series, and appends the answer record to out. It returns nil when the
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
	if rec.op < numOps {
		s.sketched[rec.op].Inc()
	}
	var resp any
	q, err := decodeRecord(rec.body, rec.op, s.seed, s.idx.Options().NumHash)
	if err == nil {
		req := q.sketch(rec.op, s.hasher)
		resp, err = s.answer(ctx, &req)
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
// JSON error envelope, the bytes writeError writes.
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

// AppendQueryRecord appends the /query record of q, sketched under seed, to
// dst.
func AppendQueryRecord(dst []byte, seed uint64, q lshensemble.BatchQuery) []byte {
	dst = appendWord(appendWord(dst, seed), math.Float64bits(q.Threshold))
	return appendSig(appendWord(dst, uint64(q.Size)), q.Sig)
}

// AppendTopKRecord appends the /query/topk record of a ranked query,
// sketched under seed, to dst.
func AppendTopKRecord(dst []byte, seed uint64, k, size int, sig lshensemble.Signature) []byte {
	return appendSig(appendWord(appendWord(appendWord(dst, seed), uint64(k)), uint64(size)), sig)
}

// AppendBatchRecord appends the /query/batch record of queries, sketched
// under seed, to dst.
func AppendBatchRecord(dst []byte, seed uint64, workers int, queries []lshensemble.BatchQuery) []byte {
	dst = appendWord(appendWord(dst, seed), uint64(workers))
	for _, q := range queries {
		dst = appendSig(appendWord(appendWord(dst, math.Float64bits(q.Threshold)), uint64(q.Size)), q.Sig)
	}
	return dst
}

// AppendAddRecord appends the add record of rec, sketched under seed, to dst.
func AppendAddRecord(dst []byte, seed uint64, rec lshensemble.DomainRecord) []byte {
	dst = appendWord(appendWord(dst, seed), uint64(rec.Size))
	return appendSig(AppendDeleteRecord(dst, rec.Key), rec.Sig)
}

// AppendDeleteRecord appends the delete record of key to dst.
func AppendDeleteRecord(dst []byte, key string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(key))), key...)
}

func appendWord(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(dst, 8), v)
}

func appendSig(dst []byte, sig lshensemble.Signature) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(8*len(sig)))
	for _, v := range sig {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// RecordLen is the length of the record of query shape o with rows rows of
// numHash words each. Every field has a fixed width, so it is known before
// any row is sketched.
func RecordLen(o Op, rows, numHash int) int {
	const word = 4 + 8
	row := word + 4 + 8*numHash // size and signature
	if o == OpBatch {
		return 2*word + rows*(word+row)
	}
	return 2*word + row
}

// decodeRecord parses the body of a request record of op o for a shard
// whose family is (seed, numHash) into what the JSON form reads to, each row
// with its signature, and checks it as the JSON form is checked. It is all or
// nothing: a field that overruns the body, bytes after the last one, another
// seed, a signature of another length or a word no hash of the family can
// produce is an error, never a shorter request.
func decodeRecord(body []byte, o Op, seed uint64, numHash int) (query, error) {
	f := fields{b: body, kind: "query"}
	if o >= numOps {
		f.kind = "write"
	}
	q := query{Rows: make([]queryRow, 1)}
	if o == OpDelete {
		q.Key = string(f.next())
		return q, cmp.Or(f.end(), q.check(o))
	}
	if s := f.word(); f.err == nil && s != seed {
		return query{}, fmt.Errorf("sketched with hash seed %d, this shard's is %d (signatures would be incomparable)", s, seed)
	}
	switch o {
	case OpQuery:
		q.Rows[0].Threshold = f.float()
	case OpTopK:
		q.Rows[0].K = f.int()
	case OpBatch:
		q.Rows, q.Workers = q.Rows[:0], f.int()
	case OpAdd:
		q.Rows[0].Size, q.Key = f.int(), string(f.next())
	}
	row := func(r *queryRow) {
		if o != OpAdd {
			r.Size = f.int()
		}
		r.Sig = f.sig(numHash)
	}
	if o != OpBatch {
		row(&q.Rows[0])
	}
	for o == OpBatch && f.err == nil && len(f.b) > 0 {
		q.Rows = append(q.Rows, queryRow{Threshold: f.float()})
		row(&q.Rows[len(q.Rows)-1])
	}
	if err := f.end(); err != nil {
		return query{}, err
	}
	return q, q.check(o)
}

// fields reads a record body's fields, each behind its uint32 length. The
// first error sticks, and every read after it returns a zero value.
type fields struct {
	b    []byte
	kind string // "query" or "write", for the error's words
	n    int    // the fields read
	err  error
}

// next reads a field of any length.
func (f *fields) next() []byte {
	if f.err != nil {
		return nil
	}
	if len(f.b) < 4 || uint64(binary.LittleEndian.Uint32(f.b)) > uint64(len(f.b)-4) {
		f.err = fmt.Errorf("%s record field %d overruns the %d bytes left", f.kind, f.n, len(f.b))
		return nil
	}
	n := 4 + binary.LittleEndian.Uint32(f.b)
	v := f.b[4:n]
	f.b, f.n = f.b[n:], f.n+1
	return v
}

// word reads a field of 8 bytes.
func (f *fields) word() uint64 {
	v := f.next()
	if f.err == nil && len(v) != 8 {
		f.err = fmt.Errorf("%s record field %d of %d bytes, want 8", f.kind, f.n-1, len(v))
	}
	if f.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (f *fields) float() float64 { return math.Float64frombits(f.word()) }

// int reads a word as an int64, which must fit an int.
func (f *fields) int() int {
	v := int64(f.word())
	if f.err == nil && int64(int(v)) != v {
		f.err = fmt.Errorf("%s record field %d: %d out of range", f.kind, f.n-1, v)
	}
	return int(v)
}

// sig reads a signature of numHash words, each in the hash range.
func (f *fields) sig(numHash int) lshensemble.Signature {
	v := f.next()
	if f.err == nil && len(v) != 8*numHash {
		f.err = fmt.Errorf("signature of %d bytes, want %d words × 8", len(v), numHash)
	}
	if f.err != nil {
		return nil
	}
	sig := make(lshensemble.Signature, numHash)
	for i := range sig {
		if sig[i] = binary.LittleEndian.Uint64(v[8*i:]); sig[i] > minhash.MersennePrime {
			f.err = fmt.Errorf("signature word %d is %d, beyond the hash range", i, sig[i])
			return nil
		}
	}
	return sig
}

// end refuses bytes after the last field.
func (f *fields) end() error {
	if f.err == nil && len(f.b) > 0 {
		f.err = fmt.Errorf("%d bytes after the %s record", len(f.b), f.kind)
	}
	return f.err
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
