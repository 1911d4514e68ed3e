package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// decode parses a JSON request body strictly: bounded size, unknown fields
// rejected, trailing garbage rejected.
func (s *Server) decode(w http.ResponseWriter, req *http.Request, v any) error {
	return decodeJSON(http.MaxBytesReader(w, req.Body, s.cfg.maxBodyBytes()), v)
}

// decodeJSON is the strict decoder every body reaches unless the by-name
// fast path reads it; its errors are the request's error bodies.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		he := badRequest("malformed request body: %v", err)
		he.cause = err
		return he
	}
	if dec.More() {
		return badRequest("malformed request body: trailing data after JSON value")
	}
	return nil
}

// bodyBufSize is the size of the pooled buffer decodeRequest reads a body
// into. Every by-name body fits many times over, and so does a
// custom-spec evaluate body.
const bodyBufSize = 4 << 10

var bodyBufs = sync.Pool{New: func() any { return new([bodyBufSize]byte) }}

// decodeRequest decodes an *EvaluateRequest or *CompareRequest body as
// decode does, with the same results and error bodies. A body that ends
// within the pooled buffer is tried by decodeByName first, and decoded
// from the buffer by decodeJSON if it declines. A longer body, or one
// whose read failed, streams on to decodeJSON under the size bound: the
// bytes already read, then the rest of the body or the read error.
func (s *Server) decodeRequest(w http.ResponseWriter, req *http.Request, v any) error {
	max := s.cfg.maxBodyBytes()
	buf := bodyBufs.Get().(*[bodyBufSize]byte)
	defer bodyBufs.Put(buf)
	b := buf[:]
	if max < int64(len(b)) {
		b = b[:max+1] // one byte past the bound tells an over-long body
	}
	n := 0
	var err error
	for n < len(b) && err == nil {
		var k int
		k, err = req.Body.Read(b[n:])
		n += k
	}
	if err == io.EOF {
		if decodeByName(b[:n], v) {
			return nil
		}
		return decodeInto(bytes.NewReader(b[:n]), v)
	}
	return decodeInto(http.MaxBytesReader(w, &readBody{read: b[:n], body: req.Body, err: err}, max), v)
}

// decodeInto is decodeJSON into v, an *EvaluateRequest or
// *CompareRequest, through a copy: encoding/json keeps the value it
// decodes into on the heap, and the copy keeps v, the handler's, off it.
func decodeInto(r io.Reader, v any) error {
	switch p := v.(type) {
	case *EvaluateRequest:
		return decodeCopy(r, p)
	case *CompareRequest:
		return decodeCopy(r, p)
	}
	return errors.New("serve: decodeRequest takes an *EvaluateRequest or *CompareRequest")
}

func decodeCopy[T EvaluateRequest | CompareRequest](r io.Reader, p *T) error {
	c := new(T)
	*c = *p
	err := decodeJSON(r, c)
	*p = *c
	return err
}

// readBody streams a body of which a prefix was already read: that
// prefix, then the read error if reading it failed, else the rest of the
// body.
type readBody struct {
	read []byte
	body io.ReadCloser
	err  error
}

func (r *readBody) Read(p []byte) (int, error) {
	if len(r.read) > 0 {
		n := copy(p, r.read)
		r.read = r.read[n:]
		return n, nil
	}
	if r.err != nil {
		return 0, r.err
	}
	return r.body.Read(p)
}

func (r *readBody) Close() error { return r.body.Close() }

// decodeByName fills v, an *EvaluateRequest or *CompareRequest, from a
// complete body b when b is a by-name body, and reports whether it did.
// A by-name body is one JSON object whose members are the type's
// server (or servers), seed, fault_profile and timeout_ms, each at most
// once, with keys spelt exactly. Server and profile names must be
// built-in ones, written without escapes, and decode to the package's
// constant strings, so nothing of b is kept. Numbers follow the JSON
// grammar and are parsed with strconv as encoding/json parses them. On
// anything else, such as a spec, a null, an escape, an unknown or repeated
// key, a number strconv rejects or bytes after the object, it declines
// and leaves v untouched. What it accepts, decodeJSON accepts too and
// decodes to the same value (FuzzDecodeBody).
func decodeByName(b []byte, v any) bool {
	var m byNameBody
	switch r := v.(type) {
	case *EvaluateRequest:
		if !m.scan(b, false) {
			return false
		}
		*r = EvaluateRequest{Server: m.server, Seed: m.seed, FaultProfile: m.profile, TimeoutMS: m.timeoutMS}
	case *CompareRequest:
		if !m.scan(b, true) {
			return false
		}
		*r = CompareRequest{Servers: m.servers, Seed: m.seed, FaultProfile: m.profile, TimeoutMS: m.timeoutMS}
	default:
		return false
	}
	return true
}

// profileNames are the fault profile names a by-name body may carry.
var profileNames = []string{"", "none", "light", "heavy"}

// byNameBody holds the members of a by-name body as decodeByName reads
// them.
type byNameBody struct {
	server    string
	servers   []string
	seed      float64
	profile   string
	timeoutMS int
}

// The members of a by-name body, one bit each, to refuse a repeated key.
const (
	memberServer = 1 << iota
	memberSeed
	memberProfile
	memberTimeout
)

// scan reads b as a by-name compare body (servers) or evaluate body
// (server).
func (m *byNameBody) scan(b []byte, compare bool) bool {
	sc := scanner{b: b}
	if !sc.next('{') {
		return false
	}
	seen := 0
	if !sc.next('}') {
		for {
			key, ok := sc.str()
			if !ok || !sc.next(':') {
				return false
			}
			bit := 0
			switch {
			case string(key) == "seed":
				bit, ok = memberSeed, sc.float(&m.seed)
			case string(key) == "fault_profile":
				bit = memberProfile
				m.profile, ok = sc.name(profileNames)
			case string(key) == "timeout_ms":
				bit, ok = memberTimeout, sc.int(&m.timeoutMS)
			case !compare && string(key) == "server":
				bit = memberServer
				m.server, ok = sc.name(allServers)
			case compare && string(key) == "servers":
				bit = memberServer
				m.servers, ok = sc.names()
			}
			if !ok || bit == 0 || seen&bit != 0 {
				return false
			}
			seen |= bit
			if sc.next('}') {
				break
			}
			if !sc.next(',') {
				return false
			}
		}
	}
	return sc.end()
}

// scanner walks a JSON text one token at a time.
type scanner struct {
	b []byte
	i int
}

// skip moves past JSON whitespace.
func (sc *scanner) skip() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// next moves past whitespace and c, and reports whether c came next.
func (sc *scanner) next(c byte) bool {
	sc.skip()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (sc *scanner) end() bool {
	sc.skip()
	return sc.i == len(sc.b)
}

// str reads a string literal and returns its bytes up to the next quote.
// Callers only compare them with constant names, none of which holds a
// backslash, a control or a non-ASCII byte, so a literal with an escape
// never matches, even one whose escaped quote ends it early here.
func (sc *scanner) str() ([]byte, bool) {
	if !sc.next('"') {
		return nil, false
	}
	j := bytes.IndexByte(sc.b[sc.i:], '"')
	if j < 0 {
		return nil, false
	}
	lit := sc.b[sc.i : sc.i+j]
	sc.i += j + 1
	return lit, true
}

// name reads a string literal equal to one of names and returns that
// name.
func (sc *scanner) name(names []string) (string, bool) {
	lit, ok := sc.str()
	if ok {
		for _, name := range names {
			if string(lit) == name {
				return name, true
			}
		}
	}
	return "", false
}

// names reads an array of built-in server names. An empty array reads as
// an empty slice that is not nil, as encoding/json decodes it.
func (sc *scanner) names() ([]string, bool) {
	if !sc.next('[') {
		return nil, false
	}
	var buf [4]string
	names := buf[:0]
	if !sc.next(']') {
		for {
			name, ok := sc.name(allServers)
			if !ok {
				return nil, false
			}
			names = append(names, name)
			if sc.next(']') {
				break
			}
			if !sc.next(',') {
				return nil, false
			}
		}
	}
	return append(make([]string, 0, len(names)), names...), true
}

// number reads a literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it.
func (sc *scanner) number() ([]byte, bool) {
	sc.skip()
	b, i := sc.b, sc.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	lit := b[sc.i:i]
	sc.i = i
	return lit, true
}

// digits returns the index of the first byte at or after i that is not a
// decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float reads a number into a float64 field as encoding/json does.
func (sc *scanner) float(f *float64) bool {
	lit, ok := sc.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*f = v
	return err == nil
}

// int reads a number into an int field as encoding/json does.
func (sc *scanner) int(n *int) bool {
	lit, ok := sc.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*n = int(v)
	return err == nil
}
