package wire

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"time"

	"lshensemble/internal/domain"
	"lshensemble/internal/minhash"
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
//	                 query (wire.go's wire types), one byte to a write (1:
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
// is checked as a whole (DecodeRecord) and then as the JSON form of its
// shape is, in its words: the index answers a query, or stores an add,
// exactly as it does the JSON request of the same values.

const (
	// RecordPath is the route that upgrades to a record connection.
	RecordPath = "/records"
	// RecordProtocol is the Upgrade token of a record connection.
	RecordProtocol = "lshensemble-records"

	// RecordIdle closes a record connection that waits this long for a
	// record, or for its answer to be read.
	RecordIdle = 90 * time.Second
	// AnswerHeader is the bytes of an answer record's status and length.
	AnswerHeader = 2 + 4
)

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
	var h [AnswerHeader]byte
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

// Record is one request record as read.
type Record struct {
	Op      Op
	Trace   string
	Timeout time.Duration
	Body    []byte
}

// ReadRecord reads one request record, its body into body's storage. A
// header it refuses is a *Refusal, which the connection answers with an
// error record before it closes; any other error is the connection's own
// (io.EOF: it closed between records).
func ReadRecord(br *bufio.Reader, body []byte) (Record, error) {
	var h [2]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return Record{Body: body}, err
	}
	if Op(h[0]) >= numRecordOps {
		return Record{Body: body}, &Refusal{Status: http.StatusBadRequest, Err: fmt.Errorf("unknown record op %d", h[0])}
	}
	var rest [255 + 8 + 4]byte
	tail := rest[:int(h[1])+8+4]
	if _, err := io.ReadFull(br, tail); err != nil {
		return Record{Body: body}, err
	}
	rec := Record{Op: Op(h[0]), Trace: string(tail[:h[1]])}
	tail = tail[h[1]:]
	rec.Timeout = time.Duration(binary.LittleEndian.Uint64(tail))
	n := binary.LittleEndian.Uint32(tail[8:])
	if n > MaxRequestBody {
		return Record{Body: body}, &Refusal{Status: http.StatusBadRequest,
			Err: fmt.Errorf("reading request: record body of %d bytes, over the %d-byte limit", n, MaxRequestBody)}
	}
	var err error
	rec.Body, err = readN(br, body, int(n))
	return rec, err
}

// AppendAnswerRecord appends to out the answer record of a request its sink
// answered with resp or refused with err: a refusal in the JSON error
// envelope under the status WriteRefusal gives it, else a 200 carrying the
// answer frame of resp.
func AppendAnswerRecord(out []byte, resp any, err error) []byte {
	start := len(out)
	out = append(out, make([]byte, AnswerHeader)...)
	status := http.StatusOK
	if err != nil {
		status = refusalStatus(err)
		b, _ := json.Marshal(ErrorResponse{Error: err.Error()})
		out = append(append(out, b...), '\n')
	} else {
		out = appendAnswer(out, resp)
	}
	binary.LittleEndian.PutUint16(out[start:], uint16(status))
	binary.LittleEndian.PutUint32(out[start+2:], uint32(len(out)-start-AnswerHeader))
	return out
}

// AppendQueryRecord appends the /query record of q, sketched under seed, to
// dst.
func AppendQueryRecord(dst []byte, seed uint64, q domain.BatchQuery) []byte {
	dst = appendWord(appendWord(dst, seed), math.Float64bits(q.Threshold))
	return appendSig(appendWord(dst, uint64(q.Size)), q.Sig)
}

// AppendTopKRecord appends the /query/topk record of a ranked query,
// sketched under seed, to dst.
func AppendTopKRecord(dst []byte, seed uint64, k, size int, sig minhash.Signature) []byte {
	return appendSig(appendWord(appendWord(appendWord(dst, seed), uint64(k)), uint64(size)), sig)
}

// AppendBatchRecord appends the /query/batch record of queries, sketched
// under seed, to dst.
func AppendBatchRecord(dst []byte, seed uint64, workers int, queries []domain.BatchQuery) []byte {
	dst = appendWord(appendWord(dst, seed), uint64(workers))
	for _, q := range queries {
		dst = appendSig(appendWord(appendWord(dst, math.Float64bits(q.Threshold)), uint64(q.Size)), q.Sig)
	}
	return dst
}

// AppendAddRecord appends the add record of rec, sketched under seed, to dst.
func AppendAddRecord(dst []byte, seed uint64, rec domain.Record) []byte {
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

func appendSig(dst []byte, sig minhash.Signature) []byte {
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

// DecodeRecord parses the body of a request record of op o for a shard
// whose family is (seed, numHash) into the Request its JSON form resolves
// to, each row with its signature, checked as the JSON form is checked. It
// is all or nothing: a field that overruns the body, bytes after the last
// one, another seed, a signature of another length or a word no hash of the
// family can produce is an error, never a shorter request.
func DecodeRecord(body []byte, o Op, seed uint64, numHash int) (Request, error) {
	f := fields{b: body, kind: "query"}
	if o >= numOps {
		f.kind = "write"
	}
	q := query{Rows: make([]queryRow, 1)}
	if o == OpDelete {
		q.Key = string(f.next())
	} else if s := f.word(); f.err == nil && s != seed {
		return Request{}, fmt.Errorf("sketched with hash seed %d, this shard's is %d (signatures would be incomparable)", s, seed)
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
	if o != OpBatch && o != OpDelete {
		row(&q.Rows[0])
	}
	for o == OpBatch && f.err == nil && len(f.b) > 0 {
		q.Rows = append(q.Rows, queryRow{Threshold: f.float()})
		row(&q.Rows[len(q.Rows)-1])
	}
	if err := cmp.Or(f.end(), q.check(o)); err != nil {
		return Request{}, err
	}
	return q.sketch(o, nil), nil // every row has its signature: nothing to sketch
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
func (f *fields) sig(numHash int) minhash.Signature {
	v := f.next()
	if f.err == nil && len(v) != 8*numHash {
		f.err = fmt.Errorf("signature of %d bytes, want %d words × 8", len(v), numHash)
	}
	if f.err != nil {
		return nil
	}
	sig := make(minhash.Signature, numHash)
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
