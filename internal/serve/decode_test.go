package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// tooLargeBody is the error body of a request over Config.MaxBodyBytes.
const tooLargeBody = `{"error":"malformed request body: http: request body too large"}` + "\n"

// A body over the size bound answers 400 with the decoder's limit error,
// whichever route reads it, in a recorder and over a real connection.
func TestBodySizeBound(t *testing.T) {
	small := newTestServer(t, Config{MaxBodyBytes: 16})
	s := newTestServer(t, Config{})
	byName := `{"server":"Xeon-4870","seed":1}`
	byName += strings.Repeat(" ", 40-len(byName))
	huge := `{"server":"Xeon-4870","seed":1,"fault_profile":"` + strings.Repeat("a", 1<<20) + `"}`
	for _, tc := range []struct {
		name, path, body string
		s                *Server
	}{
		{"16-byte bound", "/v1/evaluate", byName, small},
		{"default bound", "/v1/evaluate", huge, s},
		{"default bound compare", "/v1/compare", huge, s},
		{"default bound jobs", "/v1/jobs", huge, s},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(tc.s, http.MethodPost, tc.path, tc.body)
			if rec.Code != http.StatusBadRequest || rec.Body.String() != tooLargeBody {
				t.Fatalf("status %d body %q, want 400 %q", rec.Code, rec.Body.String(), tooLargeBody)
			}
		})
	}

	// Over a real connection the 400 also closes it, so the server reads
	// no further into the body. The peer PUT routes read their bodies
	// under the same bound.
	ts := httptest.NewServer(small.Handler())
	defer ts.Close()
	for _, r := range []struct{ method, path string }{
		{http.MethodPost, "/v1/evaluate"},
		{http.MethodPut, "/v1/peer/results/evaluate%7Cabc123"},
		{http.MethodPut, "/v1/peer/flights/" + strings.Repeat("ab", 32)},
	} {
		req, err := http.NewRequest(r.method, ts.URL+r.path, strings.NewReader(byName))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || r.path == "/v1/evaluate" && string(body) != tooLargeBody {
			t.Fatalf("%s over HTTP: status %d body %q, want 400 %q", r.path, resp.StatusCode, body, tooLargeBody)
		}
		if !resp.Close {
			t.Errorf("%s over HTTP: the connection stays open after an over-limit body; want Connection: close", r.path)
		}
	}
}

// decodeCase checks one body against both request types: decodeByName
// either declines and leaves the value untouched, or returns what
// decodeJSON returns, field for field and the seed by its bits, and then
// decodeJSON accepts the body too. It reports whether the fast path
// accepted the body as an EvaluateRequest and as a CompareRequest.
func decodeCase(t *testing.T, b []byte) (evaluate, compare bool) {
	t.Helper()
	check := func(fast, oracle any, ok bool) {
		t.Helper()
		err := decodeJSON(bytes.NewReader(b), oracle)
		if !ok {
			if zero := reflect.New(reflect.TypeOf(fast).Elem()).Interface(); !reflect.DeepEqual(fast, zero) {
				t.Fatalf("%q: declined but left %+v", b, fast)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q: fast path accepted %+v, oracle rejected: %v", b, fast, err)
		}
		if !reflect.DeepEqual(fast, oracle) {
			t.Fatalf("%q: fast path %#v, oracle %#v", b, fast, oracle)
		}
	}
	var fe, oe EvaluateRequest
	evaluate = decodeByName(b, &fe)
	check(&fe, &oe, evaluate)
	if math.Float64bits(fe.Seed) != math.Float64bits(oe.Seed) && evaluate {
		t.Fatalf("%q: fast seed %v, oracle seed %v", b, fe.Seed, oe.Seed)
	}
	var fc, oc CompareRequest
	compare = decodeByName(b, &fc)
	check(&fc, &oc, compare)
	if math.Float64bits(fc.Seed) != math.Float64bits(oc.Seed) && compare {
		t.Fatalf("%q: fast seed %v, oracle seed %v", b, fc.Seed, oc.Seed)
	}
	return evaluate, compare
}

// decodeMatchesStream checks that decodeRequest gives the value and error
// of decode, which streams the body through the size bound, for both
// request types. body returns a fresh copy of the body on every call.
func decodeMatchesStream(t *testing.T, s *Server, body func() io.Reader) {
	t.Helper()
	for _, typ := range []reflect.Type{reflect.TypeOf(EvaluateRequest{}), reflect.TypeOf(CompareRequest{})} {
		want, got := reflect.New(typ).Interface(), reflect.New(typ).Interface()
		rec := httptest.NewRecorder()
		werr := s.decode(rec, &http.Request{Body: io.NopCloser(body())}, want)
		gerr := s.decodeRequest(rec, &http.Request{Body: io.NopCloser(body())}, got)
		if fmt.Sprint(werr) != fmt.Sprint(gerr) || !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: decodeRequest gave %+v, %v; decode gave %+v, %v", typ, got, gerr, want, werr)
		}
	}
}

// decodeCases are the shapes the fast path reads and each reason it
// declines, with whether it reads the body as an EvaluateRequest and as a
// CompareRequest.
var decodeCases = []struct {
	body              string
	evaluate, compare bool
}{
	{`{"server":"Xeon-4870","seed":3}`, true, false},
	{`{"seed":3}`, true, true},
	{`{}`, true, true},
	{" {\n\"seed\" : -0 ,\t\"fault_profile\":\"heavy\", \"timeout_ms\":-5}\r\n", true, true},
	{`{"servers":["Xeon-E5462","Xeon-4870","Xeon-4870"],"seed":1.5e-3,"fault_profile":"none"}`, false, true},
	{`{"servers":[],"seed":2}`, false, true},
	{`{"seed":1e-400,"fault_profile":""}`, true, true},
	{`{"seed":-0.0E+0,"timeout_ms":0}`, true, true},
	// A spec, null or another type's member.
	{`{"spec":{"Name":"x"},"seed":1}`, false, false},
	{`{"specs":[],"seed":1}`, false, false},
	{`{"server":null}`, false, false},
	{`{"seed":null}`, false, false},
	{`{"servers":null}`, false, false},
	{`{"servers":[null]}`, false, false},
	{`{"server":"Xeon-4870","servers":["Xeon-4870"]}`, false, false},
	// Escapes, non-ASCII and control bytes, unknown names.
	{`{"server":"Xeon\u002d4870"}`, false, false},
	{`{"se\u0065d":1}`, false, false},
	{`{"server":"Xeon-4870\"}`, false, false},
	{`{"seed\"":1}`, false, false},
	{"{\"server\":\"Xeon-4870é\"}", false, false},
	{"{\"server\":\"Xeon-4870\t\"}", false, false},
	{`{"server":""}`, false, false},
	{`{"server":"PDP-11"}`, false, false},
	{`{"fault_profile":"apocalyptic"}`, false, false},
	{`{"servers":["Xeon-4870","PDP-11"]}`, false, false},
	// Unknown, repeated and other-case keys.
	{`{"server":"Xeon-4870","sede":1}`, false, false},
	{`{"seed":1,"seed":2}`, false, false},
	{`{"servers":[],"servers":["Xeon-4870"]}`, false, false},
	{`{"Seed":1}`, false, false},
	{`{"SERVER":"Xeon-4870"}`, false, false},
	// Numbers off the grammar or out of strconv's range.
	{`{"seed":01}`, false, false},
	{`{"seed":+1}`, false, false},
	{`{"seed":.5}`, false, false},
	{`{"seed":1.}`, false, false},
	{`{"seed":1e}`, false, false},
	{`{"seed":-}`, false, false},
	{`{"seed":0x10}`, false, false},
	{`{"seed":NaN}`, false, false},
	{`{"seed":"1"}`, false, false},
	{`{"seed":1e400}`, false, false},
	{`{"timeout_ms":1.5}`, false, false},
	{`{"timeout_ms":1e3}`, false, false},
	{`{"timeout_ms":99999999999999999999}`, false, false},
	// Bad structure and anything after the object.
	{`{"seed":1,}`, false, false},
	{`{,}`, false, false},
	{`{"servers":["Xeon-4870",]}`, false, false},
	{`{"seed":1`, false, false},
	{`{"seed":1} x`, false, false},
	{`{"seed":1}}`, false, false},
	{`{"seed":1} {}`, false, false},
	{``, false, false},
	{`[]`, false, false},
}

func TestDecodeByName(t *testing.T) {
	for _, tc := range decodeCases {
		evaluate, compare := decodeCase(t, []byte(tc.body))
		if evaluate != tc.evaluate || compare != tc.compare {
			t.Errorf("%q: fast path read evaluate %v compare %v, want %v %v", tc.body, evaluate, compare, tc.evaluate, tc.compare)
		}
	}
}

// decodeRequest returns decode's value and error whether the body ends
// within its buffer, runs past it, crosses the size bound or fails to
// read.
func TestDecodeRequestMatchesStream(t *testing.T) {
	long := `{"servers":["Xeon-4870"],"seed":1,"fault_profile":"` + strings.Repeat("b", bodyBufSize) + `"}`
	for _, s := range []*Server{{}, {cfg: Config{MaxBodyBytes: 24}}, {cfg: Config{MaxBodyBytes: bodyBufSize}}} {
		for _, body := range []string{
			`{"server":"Xeon-4870","seed":3}`,
			`{"seed":3}` + strings.Repeat(" ", bodyBufSize),
			`{"seed":3}` + strings.Repeat(" ", bodyBufSize-10),
			`{"seed":3}` + strings.Repeat(" ", bodyBufSize-9),
			long,
			long[:bodyBufSize+8],
			`{"seed":1}}`,
			`{"sede":1}`,
		} {
			decodeMatchesStream(t, s, func() io.Reader { return strings.NewReader(body) })
		}
		boom := errors.New("boom")
		for _, prefix := range []string{`{"seed":`, `{"seed":1}`, ``} {
			decodeMatchesStream(t, s, func() io.Reader {
				return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(boom))
			})
		}
	}
}

// FuzzDecodeBody checks the by-name fast path against encoding/json on
// every body, as decodeCase does, and decodeRequest against the streaming
// decode under the default bound and a 24-byte one.
func FuzzDecodeBody(f *testing.F) {
	for _, tc := range decodeCases {
		f.Add([]byte(tc.body))
	}
	servers := []*Server{{}, {cfg: Config{MaxBodyBytes: 24}}}
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeCase(t, body)
		for _, s := range servers {
			decodeMatchesStream(t, s, func() io.Reader { return bytes.NewReader(body) })
		}
	})
}
