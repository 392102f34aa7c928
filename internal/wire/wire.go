// Package wire is what a routed request is, for both processes that speak
// it: the daemon (internal/serve), whose sink is its live index, and the
// router (internal/cluster), whose sink is the ring of shards. It owns the
// request shapes (Op), the JSON request and answer types, the one JSON front
// end (Handler) with its one-pass body reader (reader.go), the records that
// carry a request already sketched (records.go) and the answer frame. It
// imports internal/domain, minhash, segfile and the standard library, and
// nothing of the index: cmd/lshrouter's TestRouterLinksNoIndex fails if the
// router's import closure gains the index's packages or the daemon's.
//
// A request arrives as JSON carrying the domain's raw string values, which
// the front end sketches with the hash family its sink names, or as a
// record carrying the finished signature, so that whoever holds the family
// (the router, which reads seed and num_hash off a shard's /stats) sketches
// a query or an add once, however many shards it is sent to. Both forms
// resolve through the same check into the same Request.
//
// JSON bodies are read in one pass (readRequest), each value hashed as it is
// read, so neither the router nor a shard builds a query's strings. The
// reader takes the subset of JSON that encoders write — encoding/json, and
// those that escape every non-ASCII rune as \u, Python's json.dumps by
// default, alike:
//
//   - keys spelled exactly as the wire types' tags, each at most once;
//   - any string encoding/json accepts. One with no escape and in valid UTF-8
//     is hashed where it lies in the body; any other is first decoded as
//     encoding/json decodes it (escapes undone, invalid UTF-8 made U+FFFD)
//     into a buffer the reader reuses;
//   - numbers in JSON's grammar that strconv parses into the field's Go type
//     (integer literals only for size, k and workers);
//   - nothing but whitespace after the value.
//
// Anything else — a key in another case, null, a repeated key, a malformed
// body — falls back to encoding/json, whose strings are then hashed. So a
// body is accepted or refused exactly as encoding/json accepts or refuses it,
// in its words, and reads to the same rows; a body that cannot be read whole
// (one past MaxRequestBody, or a client gone) is refused as "decoding
// request: …", at a shard and at the router alike.
//
// A JSON request gets a JSON answer; a query record gets the answer frame
// (under "wire types"), which the router merges without a JSON scanner, and
// a write record one flag byte. A refusal is the JSON error envelope on
// either transport.
package wire

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"lshensemble/internal/domain"
	"lshensemble/internal/minhash"
	"lshensemble/internal/segfile"
)

// Op is one of the shapes of body a shard serves: the three query shapes and
// the two writes, the shape readRequest reads a body as and the op of a record.
// Its String is the shape's name wherever one is printed: the op label of the
// per-shape metrics and the op field of the slow-query line.
type Op uint8

const (
	OpQuery  Op = iota // /query
	OpTopK             // /query/topk
	OpBatch            // /query/batch: one observation per batch, not per row
	OpAdd              // /add
	OpDelete           // /delete
	numRecordOps
	numOps = OpAdd // the query shapes come first
)

// opNames are each shape's name, its label in the HTTP series and its route.
var opNames = [numRecordOps][3]string{
	{"query", "query", "/query"}, {"topk", "query_topk", "/query/topk"}, {"batch", "query_batch", "/query/batch"},
	{"add", "add", "/add"}, {"delete", "delete", "/delete"},
}

func (o Op) String() string { return opNames[o][0] }

// Endpoint is the shape's label in the HTTP series.
func (o Op) Endpoint() string { return opNames[o][1] }

// Path is the shape's route.
func (o Op) Path() string { return opNames[o][2] }

// --- wire types ---
//
// These are the shard protocol: the router speaks exactly these types when
// forwarding writes and scattering queries, and extends the responses with
// partial-result fields of its own (internal/cluster).
//
// Each endpoint takes one JSON request type over HTTP; its pre-sketched form
// is a record (records.go). A 2xx answer to a record carries the answer
// frame, and errors stay the JSON envelope:
//
//	uint32 LE   rows: 1 for /query and /query/topk, one per batch query
//	per row     uint32 LE keys, then per key: uint32 LE length, the key's
//	            bytes and, on /query/topk only, its est_containment as the
//	            uint64 LE bits of a float64
//
// A threshold row's keys ascend strictly. A top-k row is in strict rank
// order: score descending, then key ascending. DecodeAnswer refuses a frame
// that breaks any of this.

// AddRequest ingests one domain; a shard sketches its values with its own
// family.
type AddRequest struct {
	Key    string   `json:"key"`
	Values []string `json:"values"`
}

// AddResponse reports an ingest: whether an existing entry was replaced and
// the distinct-value count that was sketched.
type AddResponse struct {
	Replaced bool `json:"replaced"`
	Size     int  `json:"size"`
}

// DeleteRequest removes one domain by key.
type DeleteRequest struct {
	Key string `json:"key"`
}

// DeleteResponse reports whether the key was indexed.
type DeleteResponse struct {
	Deleted bool `json:"deleted"`
}

// QueryRequest is one containment query over raw string values.
type QueryRequest struct {
	Values []string `json:"values,omitempty"`
	// Threshold is the containment threshold t*; 0 means the 0.5 default.
	Threshold float64 `json:"threshold"`
	// Size optionally overrides |Q|; 0 means the distinct value count and a
	// negative size is refused.
	Size int `json:"size"`
}

// QueryResponse lists the matching keys, sorted.
type QueryResponse struct {
	Matches []string `json:"matches"`
	Count   int      `json:"count"`
}

// TopKRequest is one ranked containment query.
type TopKRequest struct {
	Values []string `json:"values,omitempty"`
	// K is the number of ranked results to return; 0 means 10.
	K int `json:"k"`
	// Size optionally overrides |Q|; 0 means the distinct value count and a
	// negative size is refused.
	Size int `json:"size"`
}

// TopKMatch is one ranked answer.
type TopKMatch struct {
	Key string `json:"key"`
	// EstContainment is the signature-estimated containment used for the
	// ranking; exact scores require the raw domains.
	EstContainment float64 `json:"est_containment"`
}

// TopKResponse lists ranked matches, best first.
type TopKResponse struct {
	Matches []TopKMatch `json:"matches"`
	Count   int         `json:"count"`
}

// BatchRequest carries many queries answered in one round trip.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
	// Workers bounds the fan-out of the batch dispatch: 0 (or less) means
	// GOMAXPROCS, and the shard caps anything above its own.
	Workers int `json:"workers"`
}

// BatchResponse answers a BatchRequest row-by-row, in query order.
type BatchResponse struct {
	Rows []QueryResponse `json:"rows"`
}

// appendAnswer appends the answer frame of resp, a *QueryResponse,
// *TopKResponse or *BatchResponse, or the answer of a write record, to dst.
func appendAnswer(dst []byte, resp any) []byte {
	le := binary.LittleEndian
	switch a := resp.(type) {
	case *QueryResponse:
		return appendKeys(le.AppendUint32(dst, 1), a.Matches)
	case *TopKResponse:
		dst = le.AppendUint32(le.AppendUint32(dst, 1), uint32(len(a.Matches)))
		for _, m := range a.Matches {
			dst = le.AppendUint64(appendKey(dst, m.Key), math.Float64bits(m.EstContainment))
		}
		return dst
	case *BatchResponse:
		dst = le.AppendUint32(dst, uint32(len(a.Rows)))
		for _, row := range a.Rows {
			dst = appendKeys(dst, row.Matches)
		}
		return dst
	case *AddResponse:
		return append(dst, b2u(a.Replaced))
	case *DeleteResponse:
		return append(dst, b2u(a.Deleted))
	}
	panic(fmt.Sprintf("wire: no answer frame for %T", resp))
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendKeys(dst []byte, keys []string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = appendKey(dst, k)
	}
	return dst
}

func appendKey(dst []byte, key string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(key))), key...)
}

// DecodeAnswer parses the answer frame to a request of rows rows (1 for
// /query and /query/topk) into resp: a *QueryResponse, *TopKResponse or
// *BatchResponse. It trusts nothing in body. Every count is held against the
// bytes left before anything is allocated for it, and the keys are substrings
// of one string copy of body. A frame is an error, never a shorter or
// reordered answer, when its row count is not rows, when a row is out of
// order or repeats a key, when a score is not a finite number, or when bytes
// are left over.
func DecodeAnswer(body []byte, rows int, resp any) error {
	d := answerReader{Reader: segfile.Reader{B: body}, s: string(body)}
	n := d.Count(4)
	if _, batch := resp.(*BatchResponse); !d.Short && (n != rows || !batch && n != 1) {
		return fmt.Errorf("answer frame of %d rows to a request of %d", n, rows)
	}
	var err error
	switch a := resp.(type) {
	case *QueryResponse:
		*a, err = d.row()
	case *TopKResponse:
		*a, err = d.rankedRow()
	case *BatchResponse:
		a.Rows = make([]QueryResponse, n)
		for i := 0; i < n && err == nil; i++ {
			a.Rows[i], err = d.row()
		}
	default:
		return fmt.Errorf("no answer frame for %T", resp)
	}
	switch {
	case d.Short:
		return errors.New("answer frame truncated")
	case err == nil && len(d.B) != 0:
		return fmt.Errorf("%d bytes after the answer frame", len(d.B))
	}
	return err
}

// answerReader walks an answer frame; keys are substrings of s, the one
// string copy of the frame. row and rankedRow advance a copy of the Reader
// on their own stack and store it back once: advancing it through d would
// cost a write barrier per read while the collector runs.
type answerReader struct {
	segfile.Reader
	s string
}

// row reads one threshold row, whose keys must ascend strictly.
func (d *answerReader) row() (QueryResponse, error) {
	r := d.Reader
	keys := make([]string, r.Count(4))
	for i := range keys {
		n := len(r.Bytes(int(r.U32())))
		end := len(d.s) - len(r.B)
		keys[i] = d.s[end-n : end]
		if i > 0 && keys[i] <= keys[i-1] && !r.Short {
			return QueryResponse{}, fmt.Errorf("answer row out of order at key %d", i)
		}
	}
	d.Reader = r
	return QueryResponse{Matches: keys, Count: len(keys)}, nil
}

// rankedRow reads one top-k row, whose matches must be in strict rank order.
func (d *answerReader) rankedRow() (TopKResponse, error) {
	r := d.Reader
	ms := make([]TopKMatch, r.Count(4+8))
	for i := range ms {
		n := len(r.Bytes(int(r.U32())))
		end := len(d.s) - len(r.B)
		ms[i].Key = d.s[end-n : end]
		ms[i].EstContainment = math.Float64frombits(r.U64())
		if est := ms[i].EstContainment; math.IsNaN(est) || math.IsInf(est, 0) {
			return TopKResponse{}, fmt.Errorf("answer score %d is %v", i, est)
		}
		if i > 0 && !r.Short && domain.CompareTopK(domain.TopKResult(ms[i-1]), domain.TopKResult(ms[i])) >= 0 {
			return TopKResponse{}, fmt.Errorf("answer row out of rank order at match %d", i)
		}
	}
	d.Reader = r
	return TopKResponse{Matches: ms, Count: len(ms)}, nil
}

// ErrorResponse is the JSON error envelope of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- the JSON front end ---

// MaxRequestBody caps request bodies: an /add or batch body larger than
// this is a client bug.
const MaxRequestBody = 64 << 20

// decodeOne decodes exactly one JSON value from rd into dst, refusing unknown
// fields and anything but whitespace after the value.
func decodeOne(rd io.Reader, dst any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes err in the JSON error envelope with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorResponse{Error: err.Error()})
}

// readAll reads a bounded request body whole; a failed read returns the
// bytes that came before it with the error.
func readAll(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	// Sized from Content-Length so the usual body is read in one allocation;
	// the header is a hint from outside, so it never sizes the buffer past
	// 1 MiB. Without one (a chunked body) the buffer starts at a few KiB and
	// grows with what arrives.
	hint := r.ContentLength
	switch {
	case hint < 0:
		hint = 4 << 10
	case hint > 1<<20:
		hint = 1 << 20
	}
	buf := bytes.NewBuffer(make([]byte, 0, hint+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	return buf.Bytes(), err
}

// Request is a checked and sketched request of any shape, what its record
// (records.go) carries: one row for /query, /query/topk and /add, one per
// query of a batch, none for /delete; K is a ranked query's, Workers a
// batch's, Key a write's. The threshold of a row that is not a threshold
// query's is unused.
type Request struct {
	Op      Op
	Key     string
	Rows    []domain.BatchQuery
	K       int
	Workers int
}

// Refusal is an answer that is not a 200: Status, with Err in the JSON error
// envelope and, when RetryAfter is positive, a Retry-After of that many
// seconds.
type Refusal struct {
	Status     int
	Err        error
	RetryAfter int
}

func (r *Refusal) Error() string { return r.Err.Error() }

// WriteRefusal answers err: a *Refusal as it says, any other error as a 400.
func WriteRefusal(w http.ResponseWriter, err error) {
	var ref *Refusal
	if errors.As(err, &ref) && ref.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ref.RetryAfter))
	}
	writeError(w, refusalStatus(err), err)
}

// refusalStatus is the status err is answered with: a *Refusal's, else 400.
func refusalStatus(err error) int {
	var ref *Refusal
	if errors.As(err, &ref) {
		return ref.Status
	}
	return http.StatusBadRequest
}

// Handler is the JSON front end of shape o, the daemon's and the router's
// alike. It reads and checks the body once, asks family for the hash family
// to sketch it with (family may refuse, given the shape and the row count),
// sketches it once and hands the Request to answer, the sink: the index, or
// the ring. What answer returns is the 200's JSON body and a refusal at any
// step is answered by WriteRefusal. Neither means the request context ended
// the call: nobody will read a body, so the server tears the connection down.
func Handler(o Op, family func(o Op, rows int) (*minhash.Hasher, error), answer func(context.Context, *Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q, err := readRequest(w, r, o)
		var h *minhash.Hasher
		if err == nil {
			h, err = family(o, len(q.Rows))
		}
		var resp any
		if err == nil {
			req := q.sketch(o, h)
			resp, err = answer(r.Context(), &req)
		}
		switch {
		case err != nil:
			WriteRefusal(w, err)
		case resp != nil:
			WriteJSON(w, http.StatusOK, resp)
		}
	}
}

// check refuses a body of shape o that no shard would accept, in the words
// both transports answer with: a write without its key, a batch without
// rows, a row with neither values nor a signature, a negative size, a
// signature without the size only its sender could count, a negative k or a
// threshold outside (0, 1]. A batch row's refusal names its row.
func (q *query) check(o Op) error {
	switch {
	case (o == OpAdd || o == OpDelete) && q.Key == "":
		return errors.New("key is required")
	case o == OpDelete:
		return nil
	case len(q.Rows) == 0:
		return errors.New("queries must be non-empty")
	}
	for i := range q.Rows {
		err := q.Rows[i].check(o)
		if err != nil && o == OpBatch {
			err = fmt.Errorf("query %d: %w", i, err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *queryRow) check(o Op) error {
	switch {
	case r.Sig == nil && len(r.Hashes) == 0:
		return errors.New("values must be non-empty")
	case r.Size < 0:
		return fmt.Errorf("size %d must not be negative", r.Size)
	case r.Sig != nil && r.Size == 0:
		return errors.New("size must be positive with a signature")
	case o == OpTopK && r.K < 0:
		return fmt.Errorf("k %d must be positive", r.K)
	case (o == OpQuery || o == OpBatch) && !(r.Threshold >= 0 && r.Threshold <= 1): // NaN too; 0 is the default
		return fmt.Errorf("threshold %v out of range (0, 1]", r.Threshold)
	}
	return nil
}

// sketch turns a checked body of shape o into its Request. A row's values
// are sketched with h — the dedup and sketch of the root package's SketchStrings,
// compacting the hashes in place — under their distinct count unless a
// positive size overrides it; a record's row keeps its signature and size.
// A threshold or k of 0 becomes its default.
func (q *query) sketch(o Op, h *minhash.Hasher) Request {
	req := Request{Op: o, Key: q.Key, Workers: q.Workers}
	if o == OpDelete {
		return req
	}
	req.Rows = make([]domain.BatchQuery, len(q.Rows))
	for i, r := range q.Rows {
		sig, size := r.Sig, r.Size
		if sig == nil {
			var distinct int
			sig, distinct = minhash.SketchDistinct(h, r.Hashes)
			if size == 0 {
				size = distinct
			}
		}
		req.Rows[i] = domain.BatchQuery{Sig: sig, Size: size, Threshold: cmp.Or(r.Threshold, 0.5)}
	}
	req.K = cmp.Or(q.Rows[0].K, 10)
	return req
}
