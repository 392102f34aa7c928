package wire

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"lshensemble/internal/minhash"
)

// --- query bodies ---
//
// The package comment gives the subset of JSON queryReader reads. Each value
// is hashed with minhash.HashBytes, the word HashString gives the string
// encoding/json would have decoded: where it lies in the body, or, with an
// escape or invalid UTF-8 in it, once unquote has decoded it into a scratch
// buffer the reader keeps.

// query is a body of any shape as read: one row for /query, /query/topk and
// the writes, one per query of a batch, plus a batch's workers and a write's
// key. A record (records.go) reads to one too.
type query struct {
	Rows    []queryRow
	Workers int
	Key     string
}

// queryRow is one query of a body, or the domain of an add: the base hash of
// each of its values, in order and with repeats, or a record's signature,
// beside the row's other fields (Threshold on /query and in a batch, K on
// /query/topk, Size).
type queryRow struct {
	Hashes    []uint64
	Sig       minhash.Signature // a record's; nil in the JSON form
	Threshold float64
	K         int
	Size      int
}

// readRequest reads the JSON form of a body of shape o from r and checks it.
// A body it cannot read whole (one past MaxRequestBody, or a client gone) is
// refused in decoding's words: the failed read is handed to encoding/json
// after the bytes that came before it, as when the body was decoded from the
// stream.
func readRequest(w http.ResponseWriter, r *http.Request, o Op) (query, error) {
	body, err := readAll(w, r)
	var q query
	if err == nil {
		q, err = readQuery(body, o)
	} else {
		_, err = decodeQueryJSON(io.MultiReader(bytes.NewReader(body), failedRead{err}), o)
	}
	if err != nil {
		return query{}, fmt.Errorf("decoding request: %w", err)
	}
	return q, q.check(o)
}

// failedRead is a reader that fails with err.
type failedRead struct{ err error }

func (f failedRead) Read([]byte) (int, error) { return 0, f.err }

// readQuery reads body as the JSON form of shape o.
func readQuery(body []byte, o Op) (query, error) {
	// A value takes a few bytes of the body at least, so this is one
	// allocation for values of five bytes or more, a few for shorter ones.
	d := queryReader{b: body, hashes: make([]uint64, 0, len(body)/8)}
	if q, ok := d.query(o); ok {
		return q, nil
	}
	return decodeQueryJSON(bytes.NewReader(body), o)
}

// decodeQueryJSON is the reader's fallback: decodeOne decodes body into the
// shape's wire type, and the values are hashed as the reader hashes them.
func decodeQueryJSON(body io.Reader, o Op) (query, error) {
	var (
		qr  QueryRequest
		tk  TopKRequest
		br  BatchRequest
		add AddRequest
		del DeleteRequest
	)
	if err := decodeOne(body, [numRecordOps]any{&qr, &tk, &br, &add, &del}[o]); err != nil {
		return query{}, err
	}
	switch o {
	case OpQuery:
		return query{Rows: []queryRow{qr.row()}}, nil
	case OpTopK:
		return query{Rows: []queryRow{{Hashes: hashStrings(tk.Values), K: tk.K, Size: tk.Size}}}, nil
	case OpAdd:
		return query{Rows: []queryRow{{Hashes: hashStrings(add.Values)}}, Key: add.Key}, nil
	case OpDelete:
		return query{Rows: []queryRow{{}}, Key: del.Key}, nil
	}
	q := query{Rows: make([]queryRow, len(br.Queries)), Workers: br.Workers}
	for i := range br.Queries {
		q.Rows[i] = br.Queries[i].row()
	}
	return q, nil
}

func (q *QueryRequest) row() queryRow {
	return queryRow{Hashes: hashStrings(q.Values), Threshold: q.Threshold, Size: q.Size}
}

func hashStrings(values []string) []uint64 {
	hvs := make([]uint64, len(values))
	for i, v := range values {
		hvs[i] = minhash.HashString(v)
	}
	return hvs
}

// The keys of the query bodies, as bits of a set.
const (
	keyValues uint8 = 1 << iota
	keyThreshold
	keyK
	keySize
	keyQueries
	keyWorkers
	keyKey
)

var queryKeys = map[string]uint8{
	"values": keyValues, "threshold": keyThreshold, "k": keyK, "size": keySize,
	"queries": keyQueries, "workers": keyWorkers, "key": keyKey,
}

// shapeKeys are the keys of each shape's JSON form; a batch row is a
// /query's.
var shapeKeys = [numRecordOps]uint8{
	OpQuery:  keyValues | keyThreshold | keySize,
	OpTopK:   keyValues | keyK | keySize,
	OpBatch:  keyQueries | keyWorkers,
	OpAdd:    keyKey | keyValues,
	OpDelete: keyKey,
}

// queryReader reads a body in the subset of JSON the package comment gives.
// Every method reports false on anything outside it, which sends the body to
// decodeOne.
type queryReader struct {
	b       []byte
	off     int
	hashes  []uint64 // every row's hashes, back to back
	scratch []byte   // the last string unquote decoded
}

func (d *queryReader) query(o Op) (query, bool) {
	var q query
	var row queryRow
	ok := d.object(shapeKeys[o], func(key uint8) bool { return d.member(key, &q, &row) })
	d.space()
	if !ok || d.off != len(d.b) {
		return query{}, false
	}
	if o != OpBatch {
		q.Rows = []queryRow{row}
	}
	return q, true
}

// member reads the value of key into q, or into row for a row's own keys.
func (d *queryReader) member(key uint8, q *query, row *queryRow) bool {
	switch key {
	case keyValues:
		start := len(d.hashes)
		ok := d.list('[', ']', func() bool {
			s, ok := d.str()
			if ok {
				d.hashes = append(d.hashes, minhash.HashBytes(s))
			}
			return ok
		})
		row.Hashes = d.hashes[start:len(d.hashes):len(d.hashes)]
		return ok
	case keyKey:
		s, ok := d.str()
		q.Key = string(s)
		return ok
	case keyQueries:
		return d.list('[', ']', func() bool {
			q.Rows = append(q.Rows, queryRow{})
			r := &q.Rows[len(q.Rows)-1] // a row's keys append no row
			return d.object(shapeKeys[OpQuery], func(key uint8) bool { return d.member(key, q, r) })
		})
	}
	lit, ok := d.number()
	if !ok {
		return false
	}
	var err error
	switch key {
	case keyThreshold:
		row.Threshold, err = strconv.ParseFloat(string(lit), 64)
	case keyK:
		row.K, err = strconv.Atoi(string(lit))
	case keySize:
		row.Size, err = strconv.Atoi(string(lit))
	case keyWorkers:
		q.Workers, err = strconv.Atoi(string(lit))
	}
	return err == nil
}

// object reads an object whose keys are all in keys, none twice, handing
// each one to member with the reader at its value.
func (d *queryReader) object(keys uint8, member func(key uint8) bool) bool {
	var seen uint8
	return d.list('{', '}', func() bool {
		s, ok := d.str()
		key := queryKeys[string(s)]
		if !ok || key&keys == 0 || key&seen != 0 || !d.next(':') {
			return false
		}
		seen |= key
		return member(key)
	})
}

// list reads open, then items separated by commas, then close.
func (d *queryReader) list(open, close byte, item func() bool) bool {
	if !d.next(open) {
		return false
	}
	for n := 0; !d.next(close); n++ {
		if n > 0 && !d.next(',') || !item() {
			return false
		}
	}
	return true
}

// str reads a string and returns what encoding/json decodes it to: the
// string's own bytes where they lie when it has no escape and no byte below
// 0x20 and is valid UTF-8, else what unquote makes of it, which the next
// string may overwrite.
func (d *queryReader) str() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	start := d.off
	n := bytes.IndexByte(d.b[start:], '"')
	if n < 0 {
		return nil, false
	}
	s := d.b[start : start+n]
	var high byte
	for _, c := range s {
		if c < 0x20 || c == '\\' {
			return d.unquote(start)
		}
		high |= c
	}
	if high >= utf8.RuneSelf && !utf8.Valid(s) {
		return d.unquote(start)
	}
	d.off += n + 1
	return s, true
}

// unquote decodes the string whose contents start at start as encoding/json
// does, into the reader's scratch: escapes undone, and invalid UTF-8 and a
// \u escape of an unpaired surrogate each made U+FFFD. A string encoding/json
// refuses (a byte below 0x20, a bad escape) reports false, so the body's
// refusal is its.
func (d *queryReader) unquote(start int) ([]byte, bool) {
	out := d.scratch[:0]
	for i := start; i < len(d.b); {
		c := d.b[i]
		switch {
		case c == '"':
			d.off, d.scratch = i+1, out
			return out, true
		case c < 0x20:
			return nil, false
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			i++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.b[i:])
			out = utf8.AppendRune(out, r)
			i += n
		case i+1 < len(d.b) && unescape[d.b[i+1]] != 0:
			out = append(out, unescape[d.b[i+1]])
			i += 2
		default: // \uXXXX, else refused
			r := u4(d.b[i:])
			if r < 0 {
				return nil, false
			}
			i += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, u4(d.b[i:])); pair != utf8.RuneError {
					r = pair
					i += 6
				}
			}
			out = utf8.AppendRune(out, r) // an unpaired surrogate as U+FFFD
		}
	}
	return nil, false
}

// unescape maps the byte after a backslash to what the escape stands for,
// for every escape but \u; 0 is no such escape.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// u4 is the code unit of the \uXXXX escape b starts with, or -1 if it does
// not start with one.
func u4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads a literal in JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and leaves converting it
// to strconv. (A leading 0 followed by a digit is left for the caller to
// refuse: no delimiter follows it.)
func (d *queryReader) number() ([]byte, bool) {
	d.space()
	start := d.off
	d.skip('-')
	ok := d.skip('0') || d.digits()
	if ok && d.skip('.') {
		ok = d.digits()
	}
	if ok && (d.skip('e') || d.skip('E')) {
		if !d.skip('+') {
			d.skip('-')
		}
		ok = d.digits()
	}
	return d.b[start:d.off], ok
}

// digits consumes a run of decimal digits and reports whether there was one.
func (d *queryReader) digits() bool {
	start := d.off
	for d.off < len(d.b) && '0' <= d.b[d.off] && d.b[d.off] <= '9' {
		d.off++
	}
	return d.off > start
}

// skip consumes c if it is the next byte.
func (d *queryReader) skip(c byte) bool {
	if d.off < len(d.b) && d.b[d.off] == c {
		d.off++
		return true
	}
	return false
}

// next skips whitespace and consumes c if it comes next.
func (d *queryReader) next(c byte) bool {
	d.space()
	return d.skip(c)
}

// space skips JSON's four whitespace bytes.
func (d *queryReader) space() {
	for d.off < len(d.b) {
		switch d.b[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}
