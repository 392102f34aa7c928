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
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"lshensemble"
)

// dialRecords opens a record connection to the server at base.
func dialRecords(t *testing.T, base string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: shard\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", RecordPath, RecordProtocol)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != RecordProtocol {
		t.Fatalf("upgrade: %v %+v", err, resp)
	}
	return conn, br
}

// exchange sends one request record and reads its answer record.
func exchange(t *testing.T, conn net.Conn, br *bufio.Reader, o Op, trace string, timeout time.Duration, body []byte) (int, []byte) {
	t.Helper()
	if _, err := conn.Write(append(AppendRecordHeader(nil, o, trace, timeout, len(body)), body...)); err != nil {
		t.Fatal(err)
	}
	status, answer, err := ReadAnswerRecord(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	return status, answer
}

// TestRecordsAnswerAsFramedHTTP: on one record connection, every framed body
// — well-formed ones of each shape and every malformed one the 400 test
// walks — gets the status and the bytes the same body gets posted framed
// over HTTP: the same answer frames, the same refusals in the same words.
func TestRecordsAnswerAsFramedHTTP(t *testing.T) {
	s, ts := testServer(t, "")
	t.Cleanup(s.CloseRecords)
	seedWindows(t, ts.URL)
	h := lshensemble.NewHasher(fixtureNumHash, fixtureSeed)
	type body struct {
		op   Op
		data []byte
	}
	var bodies []body
	for i := 0; i < 6; i++ {
		rec := lshensemble.SketchStrings(h, "q", windowValues(i*7, 20+i*5))
		bodies = append(bodies,
			body{OpQuery, frame(t, &SketchedQuery{Seed: fixtureSeed, QueryRequest: QueryRequest{Threshold: 0.3 + 0.1*float64(i), Size: rec.Size}}, rec.Sig)},
			body{OpTopK, frame(t, &SketchedTopK{Seed: fixtureSeed, TopKRequest: TopKRequest{K: i + 1, Size: rec.Size}}, rec.Sig)},
			body{OpBatch, frame(t, &SketchedBatch{Seed: fixtureSeed, BatchRequest: BatchRequest{
				Queries: []QueryRequest{{Size: rec.Size}, {Size: rec.Size, Threshold: 0.8}}}}, rec.Sig, rec.Sig)})
	}
	for _, c := range sketchedRefusals(fixtureNumHash, fixtureSeed) {
		bodies = append(bodies, body{Op(c.ep), c.body})
	}
	conn, br := dialRecords(t, ts.URL)
	answered := 0
	for i, b := range bodies {
		wantCode, want := send(t, ts.URL+b.op.Path(), SketchedContentType, b.data)
		code, got := exchange(t, conn, br, b.op, "", time.Minute, b.data)
		if code != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("body %d on %s: record %d %q, HTTP %d %q", i, b.op.Path(), code, got, wantCode, want)
		}
		if code == http.StatusOK {
			answered++
		}
	}
	if answered != 18 {
		t.Fatalf("%d well-formed bodies answered, want 18", answered)
	}
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
		{"unknown op", "unknown record op 3", []byte{3, 0}},
		{"body over the limit", "over the 67108864-byte limit", AppendRecordHeader(nil, OpBatch, "t", time.Second, MaxRequestBody+1)},
	} {
		conn, br := dialRecords(t, ts.URL)
		if _, err := conn.Write(c.header); err != nil {
			t.Fatal(err)
		}
		status, answer, err := ReadAnswerRecord(br, nil)
		if err != nil || status != http.StatusBadRequest || !strings.Contains(string(answer), c.want) {
			t.Fatalf("%s: %d %q %v, want a 400 naming %q", c.name, status, answer, err, c.want)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := br.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: after the error record the connection gave %d bytes, %v; want it closed", c.name, n, err)
		}
	}
	if code, body := send(t, ts.URL+RecordPath, "", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST %s: HTTP %d %s", RecordPath, code, body)
	}
	resp, err := http.Get(ts.URL + RecordPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("GET %s without Upgrade: HTTP %d, want 426", RecordPath, resp.StatusCode)
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
	req, _ := http.NewRequest(http.MethodGet, ts.URL+RecordPath, nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", RecordProtocol)
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
// of answer records it owes, and cut, the records whose own deadline may cut
// them off instead, which closes the connection without an answer.
func expectedAnswers(stream []byte) (n int, cut []int) {
	for {
		if len(stream) < 2 {
			return n, cut
		}
		if Op(stream[0]) >= numOps {
			return n + 1, cut
		}
		head := 2 + int(stream[1]) + 8 + 4
		if len(stream) < head {
			return n, cut
		}
		timeout := int64(binary.LittleEndian.Uint64(stream[head-12:]))
		size := binary.LittleEndian.Uint32(stream[head-4:])
		if size > MaxRequestBody {
			return n + 1, cut
		}
		if uint64(len(stream)-head) < uint64(size) {
			return n, cut
		}
		if timeout > 0 && timeout < int64(time.Minute) {
			cut = append(cut, n)
		}
		n++
		stream = stream[head+int(size):]
	}
}

// FuzzFrameRecord feeds hostile record streams to a record connection:
// lengths past MaxRequestBody, zero lengths, truncated records, unknown ops,
// bytes left after a record. It never panics, never allocates from a length
// it has not checked, and answers exactly the records it owes — each with a
// whole answer record, a refusal carrying the error envelope — before the
// connection closes.
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
	good := frame(f, &SketchedQuery{Seed: seed, QueryRequest: QueryRequest{Size: rec.Size, Threshold: 0.5}}, rec.Sig)
	record := func(o Op, body []byte) []byte {
		return append(AppendRecordHeader(nil, o, "fuzz", time.Minute, len(body)), body...)
	}
	f.Add(record(OpQuery, good))
	f.Add(append(record(OpQuery, good), record(OpTopK, frame(f, &SketchedTopK{Seed: seed, TopKRequest: TopKRequest{Size: rec.Size, K: 3}}, rec.Sig))...))
	f.Add(record(OpBatch, nil))                                                  // a zero length
	f.Add(AppendRecordHeader(nil, OpQuery, "", 0, MaxRequestBody+1))             // past the limit
	f.Add(AppendRecordHeader(nil, OpQuery, "", 0, 1<<32-1))                      // far past it
	f.Add(AppendRecordHeader(nil, OpBatch, "t", time.Second, 40<<20))            // within it, never sent
	f.Add(record(OpQuery, good)[:20])                                            // truncated in the body
	f.Add([]byte{0, 200, 'x'})                                                   // truncated in the trace ID
	f.Add(append(record(OpQuery, good), 9, 0))                                   // then an unknown op
	f.Add(append(record(OpQuery, good), 0))                                      // then one stray byte
	f.Add(append(record(OpQuery, good[:len(good)-8]), record(OpQuery, good)...)) // a refusal, then a good one
	f.Fuzz(func(t *testing.T, stream []byte) {
		conn := &streamConn{in: bytes.NewReader(stream)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.serveRecords(conn, bufio.NewReader(conn))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20+64*uint64(len(stream)) {
			t.Fatalf("a %d-byte stream allocated %d bytes", len(stream), grew)
		}
		owed, cut := expectedAnswers(stream)
		out := bufio.NewReader(&conn.out)
		got := 0
		for ; ; got++ {
			status, body, err := ReadAnswerRecord(out, nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("answer %d is not a whole record: %v", got, err)
			}
			var e ErrorResponse
			switch {
			case status == http.StatusOK:
			case status == http.StatusBadRequest && json.Unmarshal(body, &e) == nil && e.Error != "":
			default:
				t.Fatalf("answer %d: status %d body %q", got, status, body)
			}
		}
		if got != owed && !slices.Contains(cut, got) {
			t.Fatalf("%d answers to a stream that is owed %d (records that may be cut off: %v)", got, owed, cut)
		}
	})
}
