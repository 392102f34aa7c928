package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"lshensemble"
	"lshensemble/internal/wire"
)

// readerSeeds are the request bodies internal/wire's reader tests hold the
// reader to (its testdata/reader_seeds.txt: one Go string literal a line,
// // comments).
func readerSeeds(t testing.TB) []string {
	b, err := os.ReadFile("../wire/testdata/reader_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	var seeds []string
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("reader seed %s: %v", line, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// jsonDoc decodes body with encoding/json alone into the wire type of shape
// o, refusing unknown fields and anything after the value: the reference the
// front end is held to.
func jsonDoc(body []byte, o wire.Op) (any, error) {
	doc := [numRecordOps]any{new(wire.QueryRequest), new(wire.TopKRequest), new(wire.BatchRequest),
		new(wire.AddRequest), new(wire.DeleteRequest)}[o]
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(doc); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("data after the JSON value")
	}
	return doc, nil
}

// frontEnd runs body through the JSON front end of shape o that a shard
// mounts, sketching with h, and returns the Request it hands the sink, or
// the words it refuses the body with.
func frontEnd(h *lshensemble.Hasher, o wire.Op, body []byte) (*wire.Request, string) {
	var got *wire.Request
	handler := wire.Handler(o, func(wire.Op, int) (*lshensemble.Hasher, error) { return h, nil },
		func(_ context.Context, req *wire.Request) (any, error) {
			got = req
			return &wire.DeleteResponse{}, nil
		})
	rr := httptest.NewRecorder()
	handler(rr, httptest.NewRequest(http.MethodPost, o.Path(), bytes.NewReader(body)))
	var refusal wire.ErrorResponse
	json.Unmarshal(rr.Body.Bytes(), &refusal)
	return got, refusal.Error
}

// FuzzQueryReader: the JSON front end a shard mounts hands its sink, for any
// bytes read as any of the five shapes (which, modulo five, is the Op), what
// encoding/json reads from them. A body encoding/json refuses is refused in
// its words after "decoding request:". Any other resolves exactly as its
// canonical form does — encoding/json's writing of the value it decoded — to
// the same refusal or the same Request. internal/wire's FuzzQueryReader holds
// the reader itself, its one-pass path included, to encoding/json over the
// same seeds.
func FuzzQueryReader(f *testing.F) {
	for o := wire.Op(0); o < numRecordOps; o++ {
		for _, s := range readerSeeds(f) {
			f.Add(int(o), []byte(s))
		}
	}
	h := lshensemble.NewHasher(16, fixtureSeed)
	f.Fuzz(func(t *testing.T, which int, body []byte) {
		o := wire.Op((which%int(numRecordOps) + int(numRecordOps)) % int(numRecordOps))
		got, refused := frontEnd(h, o, body)
		doc, err := jsonDoc(body, o)
		if err != nil {
			if want := "decoding request: " + err.Error(); got != nil || refused != want {
				t.Fatalf("%s %q: read %+v, refused %q; want refused %q", o, body, got, refused, want)
			}
			return
		}
		canonical := mustMarshal(t, doc)
		want, wantRefused := frontEnd(h, o, canonical)
		if refused != wantRefused || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %q: read %+v, refused %q; its canonical form %s read %+v, refused %q",
				o, body, got, refused, canonical, want, wantRefused)
		}
	})
}

// TestShardRefusesFailedReadAsDecoding: a JSON query body whose read fails
// part way — at the 64 MiB limit, or a client gone — is refused by a shard in
// the words of encoding/json decoding the bytes that came, then the failed
// read, after "decoding request:", as when the shard decoded the stream.
func TestShardRefusesFailedReadAsDecoding(t *testing.T) {
	s, _ := testServer(t, "")
	tooLarge := &http.MaxBytesError{Limit: wire.MaxRequestBody}
	for _, c := range []struct {
		came string
		err  error
		want string
	}{
		{`{"values":["a","b`, tooLarge, "decoding request: http: request body too large"},
		{`{"values":["a"],"threshold"`, io.ErrUnexpectedEOF, "decoding request: unexpected EOF"},
		{`{"values":["a"],"bogus":1}`, tooLarge, `decoding request: json: unknown field "bogus"`},
		{`{"values":x`, tooLarge, "decoding request: invalid character 'x' looking for beginning of value"},
		{`{"values":["a"]}`, tooLarge, "decoding request: data after the JSON value"},
	} {
		for _, path := range []string{"/query", "/query/topk"} {
			req := httptest.NewRequest(http.MethodPost, path, io.MultiReader(strings.NewReader(c.came), iotest.ErrReader(c.err)))
			rr := httptest.NewRecorder()
			s.ServeHTTP(rr, req)
			var got wire.ErrorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &got); rr.Code != http.StatusBadRequest || err != nil || got.Error != c.want {
				t.Errorf("%s %q then %v: HTTP %d %s, want 400 %q", path, c.came, c.err, rr.Code, rr.Body, c.want)
			}
		}
	}
}
