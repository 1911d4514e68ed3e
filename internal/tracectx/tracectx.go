// Package tracectx is the request-scoped distributed-tracing layer of the
// pipeline: one Trace per request, spans threaded through context.Context
// from HTTP ingress (internal/serve) down through the evaluation pipeline
// (core → sched → sim), W3C traceparent interop for cross-process hops, and
// a canonical JSON document format served by powerbenchd's /v1/traces and
// consumed by `powerbench trace`.
//
// It is the pipeline's only span model: every stage (evaluate, analysis,
// state, sched job, sim run and its phases, meter record, PMU collect,
// training) opens its span here, and the one-shot tools' -trace-out renders
// the same trees as Chrome trace-event JSON with WriteChrome.
//
// Span ids are identity-derived: a span id is a pure function of the trace
// id and the span's path (the /-joined chain of span names from the root),
// never a creation ordinal, so the same request produces the same span ids
// at any `-jobs` count — the tracing analogue of the scheduler's
// seed-by-identity contract. Likewise the canonical rendering orders spans
// by path, never by completion order, and excludes wall-clock timings, so a
// trace tree is byte-identical across worker counts and the tree hash is a
// content address for "what this request did".
//
// Wall-clock timings are still recorded per span (that is the forensic
// payload: where did the time go), they are just quarantined to the
// non-canonical fields of the exported document.
//
// Every entry point is nil-safe the way internal/obs is: a nil *Trace or
// nil *Span turns the layer into a no-op costing one pointer comparison, so
// instrumented pipeline code needs no conditional wiring and requests
// without tracing pay (almost) nothing.
package tracectx

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"time"
)

// ID is a 16-byte W3C trace id.
type ID [16]byte

// String renders the id as 32 lowercase hex characters.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the id is the invalid all-zero id.
func (id ID) IsZero() bool { return id == ID{} }

// SpanID is an 8-byte W3C span id.
type SpanID [8]byte

// String renders the span id as 16 lowercase hex characters.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the span id is the invalid all-zero id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// DeriveID maps a canonical request key (the serve layer's cache key, built
// on core.CanonicalHash) to a trace id: the leading 16 bytes of a
// domain-separated SHA-256. Identical requests therefore share a trace id
// exactly as they share cached response bytes and flight ids — the trace id
// is a content address, not a random sample.
func DeriveID(key string) ID {
	sum := sha256.Sum256([]byte("powerbench-trace-v1|" + key))
	var id ID
	copy(id[:], sum[:len(id)])
	return id
}

// DeriveSpanID maps (trace id, span path) to the span's id: the leading 8
// bytes of SHA-256 over both. Span ids are unique per trace as long as
// sibling names are distinct, which the pipeline guarantees by construction
// (state names, job indices and attempt ordinals are all part of the name).
func DeriveSpanID(trace ID, path string) SpanID {
	h := sha256.New()
	h.Write(trace[:])
	h.Write([]byte(path))
	var id SpanID
	copy(id[:], h.Sum(nil)[:len(id)])
	return id
}

// CatCluster marks spans that describe cross-shard transport (peer fetches,
// federation fan-out). The fleet layer's pipeline hash excludes this
// category, so a request computed through a peer and the same request
// computed locally hash to the same pipeline identity.
const CatCluster = "cluster"

// Trace collects the spans of one request. Spans may be created and ended
// from any goroutine; the trace serializes its span list under a mutex.
type Trace struct {
	mu    sync.Mutex
	id    ID
	epoch time.Time
	spans []*Span
	root  *Span
	// origin is the incoming W3C traceparent header, recorded verbatim as
	// non-canonical metadata (the upstream hop that caused this request).
	origin string
}

// New starts a trace with the given id and a root span. The root's id is
// DeriveSpanID(id, rootName), so it is reproducible from the outside — the
// serve layer emits it in the response traceparent before the request has
// even computed.
func New(id ID, rootName, cat string) *Trace {
	t := &Trace{id: id, epoch: time.Now()}
	t.root = &Span{
		t:    t,
		id:   DeriveSpanID(id, rootName),
		path: rootName,
		name: rootName,
		cat:  cat,
	}
	t.spans = []*Span{t.root}
	return t
}

// ID returns the trace id; a nil trace returns the zero id.
func (t *Trace) ID() ID {
	if t == nil {
		return ID{}
	}
	return t.id
}

// Root returns the root span; a nil trace returns a nil (no-op) span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// SetOrigin records the incoming W3C traceparent header (metadata only; it
// does not re-parent the trace).
func (t *Trace) SetOrigin(traceparent string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.origin = traceparent
	t.mu.Unlock()
}

// Span is one node of the trace tree. A nil span is a no-op.
type Span struct {
	t      *Trace
	id     SpanID
	parent SpanID
	path   string
	name   string
	cat    string

	mu      sync.Mutex
	attrs   map[string]any
	startNS int64 // relative to the trace epoch
	endNS   int64
	ended   bool
}

// Child opens a sub-span. The child's id derives from the parent's path
// plus the child's name; give siblings distinct names (the pipeline bakes
// indices and attempt ordinals into them). Nil spans return nil children.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	path := s.path + "/" + name
	c := &Span{
		t:      t,
		id:     DeriveSpanID(t.id, path),
		parent: s.id,
		path:   path,
		name:   name,
		cat:    s.cat,
	}
	t.mu.Lock()
	c.startNS = int64(time.Since(t.epoch))
	t.spans = append(t.spans, c)
	t.mu.Unlock()
	return c
}

// ChildCat opens a sub-span with an explicit category instead of inheriting
// the parent's. Cross-shard transport spans use CatCluster so the pipeline
// hash can exclude them.
func (s *Span) ChildCat(name, cat string) *Span {
	c := s.Child(name)
	if c != nil {
		c.mu.Lock()
		c.cat = cat
		c.mu.Unlock()
	}
	return c
}

// Attr attaches a key/value pair to the span. Values must marshal to JSON
// deterministically (numbers, strings, bools); pipeline attrs are all pure
// functions of the request identity, which is what keeps the canonical tree
// byte-identical across worker counts. Nil spans discard.
func (s *Span) Attr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[key] = value
	s.mu.Unlock()
	return s
}

// SetVirtual records the span's interval on the simulation's virtual clock
// (server-clock seconds) as sim_t0/sim_t1 attrs.
func (s *Span) SetVirtual(t0, t1 float64) *Span {
	if s == nil {
		return nil
	}
	return s.Attr("sim_t0", t0).Attr("sim_t1", t1)
}

// End closes the span; ending twice is a no-op so defer composes with early
// ends. An un-ended span renders with the trace's final timestamp.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.endNS = int64(time.Since(s.t.epoch))
	}
	s.mu.Unlock()
}

// ID returns the span's identity-derived id; nil spans return the zero id.
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Ref returns the span's exemplar reference, "trace:<trace id>/<span id>",
// which names the span inside the document served by /v1/traces/<trace
// id>. A nil span returns "", so an untraced run records no exemplar.
func (s *Span) Ref() string {
	if s == nil {
		return ""
	}
	return "trace:" + s.t.id.String() + "/" + s.id.String()
}

// --- context plumbing ---

type ctxKey struct{}

// ContextWith returns ctx carrying s as the current span; downstream code
// retrieves it with FromContext and opens children on it. A nil span
// returns ctx unchanged, so untraced requests allocate nothing.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the current span, or nil (a no-op span) when ctx
// carries none.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
