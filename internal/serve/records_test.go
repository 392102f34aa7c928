package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"lshensemble"
	"lshensemble/internal/minhash"
	"lshensemble/internal/wire"
)

// dialRecords opens a record connection to the server at base.
func dialRecords(t *testing.T, base string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: shard\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", wire.RecordPath, wire.RecordProtocol)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != wire.RecordProtocol {
		t.Fatalf("upgrade: %v %+v", err, resp)
	}
	return conn, br
}

// exchange sends one request record and reads its answer record.
func exchange(t *testing.T, conn net.Conn, br *bufio.Reader, o wire.Op, trace string, timeout time.Duration, body []byte) (int, []byte) {
	t.Helper()
	if _, err := conn.Write(append(wire.AppendRecordHeader(nil, o, trace, timeout, len(body)), body...)); err != nil {
		t.Fatal(err)
	}
	status, answer, err := wire.ReadAnswerRecord(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	return status, answer
}

// TestRecordRefusalsCloseTheConnection: an unknown op and a length past
// MaxRequestBody get an error record, then the connection closes. The route
// without the upgrade headers is a 426.
func TestRecordRefusalsCloseTheConnection(t *testing.T) {
	s, ts := testServer(t, "")
	t.Cleanup(s.CloseRecords)
	for _, c := range []struct {
		name, want string
		header     []byte
	}{
		{"unknown op", "unknown record op 9", []byte{9, 0}},
		{"body over the limit", "over the 67108864-byte limit", wire.AppendRecordHeader(nil, wire.OpBatch, "t", time.Second, wire.MaxRequestBody+1)},
	} {
		conn, br := dialRecords(t, ts.URL)
		if _, err := conn.Write(c.header); err != nil {
			t.Fatal(err)
		}
		status, answer, err := wire.ReadAnswerRecord(br, nil)
		if err != nil || status != http.StatusBadRequest || !strings.Contains(string(answer), c.want) {
			t.Fatalf("%s: %d %q %v, want a 400 naming %q", c.name, status, answer, err, c.want)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := br.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: after the error record the connection gave %d bytes, %v; want it closed", c.name, n, err)
		}
	}
	if code, body := send(t, ts.URL+wire.RecordPath, "", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST %s: HTTP %d %s", wire.RecordPath, code, body)
	}
	resp, err := http.Get(ts.URL + wire.RecordPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("GET %s without Upgrade: HTTP %d, want 426", wire.RecordPath, resp.StatusCode)
	}
}

// TestCloseRecords: CloseRecords ends every record connection, and the route
// refuses upgrades after it.
func TestCloseRecords(t *testing.T) {
	s, ts := testServer(t, "")
	conn, br := dialRecords(t, ts.URL)
	s.CloseRecords()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("record connection after CloseRecords: %v, want closed", err)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+wire.RecordPath, nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", wire.RecordProtocol)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upgrade after CloseRecords: HTTP %d, want 503", resp.StatusCode)
	}
}

// streamConn is a record connection over fixed bytes: reads come from in
// until EOF, writes go to out, deadlines do nothing.
type streamConn struct {
	net.Conn
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *streamConn) Read(b []byte) (int, error)       { return c.in.Read(b) }
func (c *streamConn) Write(b []byte) (int, error)      { return c.out.Write(b) }
func (c *streamConn) SetReadDeadline(time.Time) error  { return nil }
func (c *streamConn) SetWriteDeadline(time.Time) error { return nil }
func (c *streamConn) SetDeadline(time.Time) error      { return nil }
func (c *streamConn) Close() error                     { return nil }

// expectedAnswers walks a record stream as the connection must: the number
// of answer records it owes, cut, the records whose own deadline may cut
// them off instead, which closes the connection without an answer, and
// writes, for every write record by its answer's position, its key if the
// index may take it and "" if not.
func expectedAnswers(stream []byte, seed uint64, numHash int) (n int, cut []int, writes map[int]string) {
	writes = map[int]string{}
	for {
		if len(stream) < 2 {
			return n, cut, writes
		}
		if wire.Op(stream[0]) >= numRecordOps {
			return n + 1, cut, writes
		}
		head := 2 + int(stream[1]) + 8 + 4
		if len(stream) < head {
			return n, cut, writes
		}
		timeout := int64(binary.LittleEndian.Uint64(stream[head-12:]))
		size := binary.LittleEndian.Uint32(stream[head-4:])
		if size > wire.MaxRequestBody {
			return n + 1, cut, writes
		}
		if uint64(len(stream)-head) < uint64(size) {
			return n, cut, writes
		}
		switch body := stream[head : head+int(size)]; wire.Op(stream[0]) {
		case wire.OpAdd, wire.OpDelete:
			writes[n] = wellFormedWrite(wire.Op(stream[0]), body, seed, numHash)
		default:
			if timeout > 0 && timeout < int64(time.Minute) {
				cut = append(cut, n)
			}
		}
		n++
		stream = stream[head+int(size):]
	}
}

// wellFormedWrite is the test's own reading of a write record: the fields of
// the layout, each behind its length and nothing after them, a key, and for
// an add this seed, a positive size and numHash words in the hash range. It
// returns the key of a well-formed record, "" for any other.
func wellFormedWrite(o wire.Op, body []byte, seed uint64, numHash int) string {
	var fields [][]byte
	for len(body) >= 4 {
		n := binary.LittleEndian.Uint32(body)
		if uint64(n) > uint64(len(body)-4) {
			return ""
		}
		fields, body = append(fields, body[4:4+n]), body[4+n:]
	}
	switch {
	case len(body) > 0:
		return ""
	case o == wire.OpDelete:
		if len(fields) != 1 {
			return ""
		}
		return string(fields[0])
	case len(fields) != 4 || len(fields[0]) != 8 || len(fields[1]) != 8 || len(fields[3]) != 8*numHash:
		return ""
	case binary.LittleEndian.Uint64(fields[0]) != seed || int64(binary.LittleEndian.Uint64(fields[1])) <= 0:
		return ""
	}
	for w := fields[3]; len(w) > 0; w = w[8:] {
		if binary.LittleEndian.Uint64(w) > minhash.MersennePrime {
			return ""
		}
	}
	return string(fields[2])
}

// FuzzFrameRecord feeds hostile record streams to a record connection:
// lengths past MaxRequestBody, zero lengths, truncated records, unknown ops,
// bytes left after a record, and add and delete records of every malformed
// kind. It never panics, never allocates from a length it has not checked,
// and answers exactly the records it owes — each with a whole answer record,
// a refusal carrying the error envelope — before the connection closes. A
// write is taken exactly when the test's own reading of it says it may be,
// and one that is not is refused before the index sees it.
func FuzzFrameRecord(f *testing.F) {
	const numHash, seed = 32, 1
	idx, err := lshensemble.BuildLive(nil, lshensemble.LiveOptions{
		Options:       lshensemble.Options{NumHash: numHash, RMax: 4, NumPartitions: 2},
		SealThreshold: 8,
	})
	if err != nil {
		f.Fatal(err)
	}
	defer idx.Close()
	h := lshensemble.NewHasher(numHash, seed)
	s := NewWith(idx, h, seed, "", Options{})
	for i := 0; i < 12; i++ {
		if _, err := idx.Add(lshensemble.SketchStrings(h, fmt.Sprintf("k%d", i), windowValues(i, 6))); err != nil {
			f.Fatal(err)
		}
	}
	rec := lshensemble.SketchStrings(h, "q", windowValues(2, 6))
	good := wire.AppendQueryRecord(nil, seed, lshensemble.BatchQuery{Sig: rec.Sig, Size: rec.Size, Threshold: 0.5})
	record := func(o wire.Op, body []byte) []byte {
		return append(wire.AppendRecordHeader(nil, o, "fuzz", time.Minute, len(body)), body...)
	}
	add := wire.AppendAddRecord(nil, seed, rec)
	f.Add(record(wire.OpQuery, good))
	f.Add(append(record(wire.OpQuery, good), record(wire.OpTopK, wire.AppendTopKRecord(nil, seed, 3, rec.Size, rec.Sig))...))
	f.Add(record(wire.OpBatch, nil))                                                       // a zero length
	f.Add(wire.AppendRecordHeader(nil, wire.OpQuery, "", 0, wire.MaxRequestBody+1))        // past the limit
	f.Add(wire.AppendRecordHeader(nil, wire.OpQuery, "", 0, 1<<32-1))                      // far past it
	f.Add(wire.AppendRecordHeader(nil, wire.OpBatch, "t", time.Second, 40<<20))            // within it, never sent
	f.Add(record(wire.OpQuery, good)[:20])                                                 // truncated in the body
	f.Add([]byte{0, 200, 'x'})                                                             // truncated in the trace ID
	f.Add(append(record(wire.OpQuery, good), 9, 0))                                        // then an unknown op
	f.Add(append(record(wire.OpQuery, good), 0))                                           // then one stray byte
	f.Add(append(record(wire.OpQuery, good[:len(good)-8]), record(wire.OpQuery, good)...)) // a refusal, then a good one
	f.Add(append(record(wire.OpAdd, add), record(wire.OpDelete, wire.AppendDeleteRecord(nil, "q"))...))
	for _, bad := range []lshensemble.DomainRecord{
		{Key: "q", Size: rec.Size, Sig: rec.Sig[:numHash-1]},                          // a word short
		{Key: "q", Size: 0, Sig: rec.Sig},                                             // no size
		{Key: "q", Size: -3, Sig: rec.Sig},                                            // a negative one
		{Key: "", Size: rec.Size, Sig: rec.Sig},                                       // no key
		{Key: "q", Size: rec.Size, Sig: append(rec.Sig[:numHash-1:numHash-1], 1<<63)}, // a word past the range
	} {
		f.Add(record(wire.OpAdd, wire.AppendAddRecord(nil, seed, bad)))
	}
	f.Add(record(wire.OpAdd, wire.AppendAddRecord(nil, seed+1, rec)))      // another family
	f.Add(record(wire.OpAdd, append(add, 0)))                              // a byte after the fields
	f.Add(record(wire.OpAdd, add[:len(add)-3]))                            // the signature cut short
	f.Add(record(wire.OpDelete, wire.AppendDeleteRecord(nil, "")))         // no key to delete
	f.Add(record(wire.OpDelete, binary.LittleEndian.AppendUint32(nil, 9))) // a key length past the body
	f.Fuzz(func(t *testing.T, stream []byte) {
		conn := &streamConn{in: bytes.NewReader(stream)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.serveRecords(conn, bufio.NewReader(conn))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20+64*uint64(len(stream)) {
			t.Fatalf("a %d-byte stream allocated %d bytes", len(stream), grew)
		}
		owed, cut, writes := expectedAnswers(stream, seed, numHash)
		out := bufio.NewReader(&conn.out)
		got := 0
		for ; ; got++ {
			status, body, err := wire.ReadAnswerRecord(out, nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("answer %d is not a whole record: %v", got, err)
			}
			var e wire.ErrorResponse
			switch {
			case status == http.StatusOK:
			case status == http.StatusBadRequest && json.Unmarshal(body, &e) == nil && e.Error != "":
			default:
				t.Fatalf("answer %d: status %d body %q", got, status, body)
			}
			if key, write := writes[got]; write && ((key != "") != (status == http.StatusOK) || strings.HasPrefix(e.Error, "live:")) {
				t.Fatalf("write %d, key %q: answered %d %q", got, key, status, body)
			}
		}
		if got != owed && !slices.Contains(cut, got) {
			t.Fatalf("%d answers to a stream that is owed %d (records that may be cut off: %v)", got, owed, cut)
		}
		for _, key := range writes { // so the index does not grow with the run
			idx.Delete(key)
		}
	})
}

// TestWriteRecordsStoreWhatJSONStores: a run of adds, replacing adds and
// deletes sent as records to one shard, and as JSON to another, gets the
// same replaced and deleted flags, moves the same request series and leaves
// the two indexes byte for byte the same. A malformed write record is a 400
// in the words its JSON counterpart or a query record would get.
func TestWriteRecordsStoreWhatJSONStores(t *testing.T) {
	start := func() (*Server, string) {
		idx, err := lshensemble.BuildLive(nil, lshensemble.LiveOptions{
			Options:       lshensemble.Options{NumHash: fixtureNumHash, RMax: 8, NumPartitions: 4},
			SealThreshold: 1 << 20, // nothing seals behind the comparison's back
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Close)
		s := NewWith(idx, lshensemble.NewHasher(fixtureNumHash, fixtureSeed), fixtureSeed, "", Options{})
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		t.Cleanup(s.CloseRecords)
		return s, ts.URL
	}
	jsonSrv, jsonURL := start()
	recSrv, recURL := start()
	conn, br := dialRecords(t, recURL)
	h := lshensemble.NewHasher(fixtureNumHash, fixtureSeed)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("d%02d", i%25)
		if i%5 == 4 {
			var want wire.DeleteResponse
			post(t, jsonURL+"/delete", wire.DeleteRequest{Key: key}, http.StatusOK, &want)
			code, got := exchange(t, conn, br, wire.OpDelete, "", time.Minute, wire.AppendDeleteRecord(nil, key))
			if flag, err := wire.DecodeFlag(got); code != http.StatusOK || err != nil || flag != want.Deleted {
				t.Fatalf("delete %s: record %d %q, JSON deleted=%v", key, code, got, want.Deleted)
			}
			continue
		}
		values := append(windowValues(i*3, 5+i%7), fmt.Sprintf("v%05d", i*3)) // one value twice
		var want wire.AddResponse
		post(t, jsonURL+"/add", wire.AddRequest{Key: key, Values: values}, http.StatusOK, &want)
		code, got := exchange(t, conn, br, wire.OpAdd, "", time.Minute, wire.AppendAddRecord(nil, fixtureSeed, lshensemble.SketchStrings(h, key, values)))
		if flag, err := wire.DecodeFlag(got); code != http.StatusOK || err != nil || flag != want.Replaced {
			t.Fatalf("add %s: record %d %q, JSON replaced=%v", key, code, got, want.Replaced)
		}
	}
	writeSeries := func(base string) string {
		var keep []string
		for _, line := range strings.Split(scrape(t, base), "\n") {
			if strings.HasPrefix(line, "lshensembled_http_requests_total") && (strings.Contains(line, `"add"`) || strings.Contains(line, `"delete"`)) {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if a, b := writeSeries(jsonURL), writeSeries(recURL); a != b || !strings.Contains(b, `endpoint="add"} 32`) {
		t.Fatalf("write series: JSON shard\n%s\nrecord shard\n%s", a, b)
	}
	if a, b := jsonSrv.Index().AppendBinary(nil), recSrv.Index().AppendBinary(nil); !bytes.Equal(a, b) {
		t.Fatalf("the record-fed index encodes to %d bytes unlike the JSON-fed one's %d", len(b), len(a))
	}

	rec := lshensemble.SketchStrings(h, "k", windowValues(0, 9))
	withSig := func(sig lshensemble.Signature) lshensemble.DomainRecord {
		return lshensemble.DomainRecord{Key: rec.Key, Size: rec.Size, Sig: sig}
	}
	_, keyRequired := send(t, jsonURL+"/add", "application/json", []byte(`{"key":"","values":["a"]}`))
	for _, c := range []struct {
		name, want string
		op         wire.Op
		body       []byte
	}{
		{"no key", string(keyRequired), wire.OpAdd, wire.AppendAddRecord(nil, fixtureSeed, lshensemble.DomainRecord{Size: rec.Size, Sig: rec.Sig})},
		{"no key to delete", string(keyRequired), wire.OpDelete, wire.AppendDeleteRecord(nil, "")},
		{"another seed", "sketched with hash seed 2, this shard's is 1", wire.OpAdd, wire.AppendAddRecord(nil, fixtureSeed+1, rec)},
		{"a word short", "signature of 2040 bytes, want 256 words", wire.OpAdd, wire.AppendAddRecord(nil, fixtureSeed, withSig(rec.Sig[:fixtureNumHash-1]))},
		{"a word past the range", "signature word 255 is 9223372036854775808, beyond the hash range", wire.OpAdd,
			wire.AppendAddRecord(nil, fixtureSeed, withSig(append(rec.Sig[:fixtureNumHash-1:fixtureNumHash-1], 1<<63)))},
		{"no size", "size must be positive with a signature", wire.OpAdd, wire.AppendAddRecord(nil, fixtureSeed, lshensemble.DomainRecord{Key: "k", Sig: rec.Sig})},
		{"a negative size", "size -2 must not be negative", wire.OpAdd, wire.AppendAddRecord(nil, fixtureSeed, lshensemble.DomainRecord{Key: "k", Size: -2, Sig: rec.Sig})},
		{"a byte after the fields", "1 bytes after the write record", wire.OpAdd, append(wire.AppendAddRecord(nil, fixtureSeed, rec), 0)},
		{"a field past the body", "overruns", wire.OpDelete, binary.LittleEndian.AppendUint32(nil, 5)},
	} {
		code, got := exchange(t, conn, br, c.op, "", time.Minute, c.body)
		if code != http.StatusBadRequest || !strings.Contains(string(got), strings.TrimSpace(c.want)) {
			t.Errorf("%s: record %d %q; want a 400 naming %q", c.name, code, got, c.want)
		}
	}
	if recSrv.Index().Len() != jsonSrv.Index().Len() {
		t.Fatalf("a refused write record reached the index: %d domains, want %d", recSrv.Index().Len(), jsonSrv.Index().Len())
	}
}
