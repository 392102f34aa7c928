package serve

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"lshensemble"
	"lshensemble/internal/wire"
)

// fuzzEndpoints are the POST routes that decode untrusted JSON bodies.
// /save and /compact take no body and are excluded — /save would write to
// disk on every fuzz iteration.
var fuzzEndpoints = []string{"/add", "/delete", "/query", "/query/topk", "/query/batch"}

// FuzzWireJSON drives the HTTP wire layer with hostile bodies against
// every JSON-decoding endpoint. The server's contract: never panic, and
// answer every request with a routable status — 2xx for accepted bodies,
// 4xx for rejected ones, never a 5xx (the index below can't fail on
// in-memory operations).
func FuzzWireJSON(f *testing.F) {
	opts := lshensemble.LiveOptions{
		Options:       lshensemble.Options{NumHash: 32, RMax: 4, NumPartitions: 2},
		SealThreshold: 8,
	}
	idx, err := lshensemble.BuildLive(nil, opts)
	if err != nil {
		f.Fatal(err)
	}
	defer idx.Close()
	s := NewWith(idx, lshensemble.NewHasher(32, 1), 1, "", Options{})

	for i := range fuzzEndpoints {
		f.Add(i, []byte(`{"key":"k1","values":["a","b","c"]}`))
		f.Add(i, []byte(`{"values":["a","b"],"threshold":0.5,"size":2}`))
		f.Add(i, []byte(`{"values":["a"],"k":3}`))
		f.Add(i, []byte(`{"queries":[{"values":["a"]},{"values":["b"],"threshold":0.9}]}`))
		f.Add(i, []byte(`{}`))
		f.Add(i, []byte(``))
		f.Add(i, []byte(`{"values":[`))
		f.Add(i, []byte(`{"unknown_field":1}`))
		f.Add(i, []byte(`{"threshold":1e308}`))
	}
	f.Fuzz(func(t *testing.T, which int, body []byte) {
		ep := fuzzEndpoints[((which%len(fuzzEndpoints))+len(fuzzEndpoints))%len(fuzzEndpoints)]
		req := httptest.NewRequest(http.MethodPost, ep, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, req)
		if c := rr.Code; c >= 500 {
			t.Fatalf("%s answered %d for body %q", ep, c, body)
		}
		// Whatever the fuzzer did, the index must still answer /stats.
		srr := httptest.NewRecorder()
		s.ServeHTTP(srr, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if srr.Code != http.StatusOK {
			t.Fatalf("/stats broken after %s %q: %d", ep, body, srr.Code)
		}
	})
}

// FuzzDecodeAnswer drives the answer-frame decoder with hostile bytes as each
// of the three answer shapes. It never panics and never allocates more than a
// fixed multiple of the body, however large the counts the body claims. What
// it accepts encodes back to the very bytes it came from, and encoding then
// decoding the seed answers gives them back unchanged: the frame and its
// decoding are each other's inverse.
func FuzzDecodeAnswer(f *testing.F) {
	for _, resp := range []any{
		&wire.QueryResponse{Matches: []string{}},
		&wire.QueryResponse{Matches: []string{"a", "b:c", "w012"}, Count: 3},
		&wire.TopKResponse{Matches: []wire.TopKMatch{{Key: "x", EstContainment: 1}, {Key: "a", EstContainment: 0.5}, {Key: "b", EstContainment: 0.5}, {Key: "", EstContainment: 0}}, Count: 4},
		&wire.BatchResponse{Rows: []wire.QueryResponse{{Matches: []string{"k1"}, Count: 1}, {Matches: []string{}}, {Matches: []string{"a", "z"}, Count: 2}}},
	} {
		frame := answerFrame(resp)
		rows := 1
		if b, ok := resp.(*wire.BatchResponse); ok {
			rows = len(b.Rows)
		}
		back := reflect.New(reflect.TypeOf(resp).Elem()).Interface()
		if err := wire.DecodeAnswer(frame, rows, back); err != nil || !reflect.DeepEqual(back, resp) {
			f.Fatalf("%+v decodes back to %+v (%v)", resp, back, err)
		}
		f.Add(frame)
	}
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})                       // a count past the body
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})                       // as many rows
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 'b', 1, 0, 0, 0, 'a'}) // out of order

	f.Fuzz(func(t *testing.T, body []byte) {
		// The row count the frame claims, so that batch decoding gets past
		// the comparison with the request's.
		rows := 1
		if len(body) >= 4 {
			rows = int(binary.LittleEndian.Uint32(body))
		}
		for _, resp := range []any{new(wire.QueryResponse), new(wire.TopKResponse), new(wire.BatchResponse)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := wire.DecodeAnswer(body, rows, resp)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(body))+64<<10 {
				t.Fatalf("decoding %d bytes as %T allocated %d bytes", len(body), resp, grew)
			}
			if err != nil {
				continue
			}
			if again := answerFrame(resp); !bytes.Equal(again, body) {
				t.Fatalf("%q decoded as %T to %+v, which encodes to %q", body, resp, resp, again)
			}
		}
	})
}

// answerFrame is the answer frame of resp, as a shard's answer record
// carries it.
func answerFrame(resp any) []byte {
	return wire.AppendAnswerRecord(nil, resp, nil)[wire.AnswerHeader:]
}
