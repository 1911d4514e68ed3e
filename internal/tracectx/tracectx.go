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
// instrumented pipeline code needs no conditional wiring. For an untraced
// request to allocate nothing, callers pass span names in parts (ChildJoin,
// ChildIndex) rather than concatenated, and attr values through the typed
// setters (Str, Int, Float, Bool) rather than boxed into Attr's any.
package tracectx

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// ID is a 16-byte W3C trace id.
type ID [16]byte

// String renders the id as 32 lowercase hex characters.
func (id ID) String() string {
	var b [2 * len(ID{})]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// IsZero reports whether the id is the invalid all-zero id.
func (id ID) IsZero() bool { return id == ID{} }

// SpanID is an 8-byte W3C span id.
type SpanID [8]byte

// String renders the span id as 16 lowercase hex characters.
func (id SpanID) String() string {
	var b [2 * len(SpanID{})]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// IsZero reports whether the span id is the invalid all-zero id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// DeriveID maps a canonical request key (the serve layer's cache key, built
// on core.CanonicalHash) to a trace id: the leading 16 bytes of a
// domain-separated SHA-256. Identical requests therefore share a trace id
// exactly as they share cached response bytes and flight ids — the trace id
// is a content address, not a random sample.
func DeriveID(key string) ID {
	var buf [derivBuf]byte
	sum := sha256.Sum256(append(append(buf[:0], "powerbench-trace-v1|"...), key...))
	var id ID
	copy(id[:], sum[:len(id)])
	return id
}

// DeriveSpanID maps (trace id, span path) to the span's id: the leading 8
// bytes of SHA-256 over both. Span ids are unique per trace as long as
// sibling names are distinct, which the pipeline guarantees by construction
// (state names, job indices and attempt ordinals are all part of the name).
func DeriveSpanID(trace ID, path string) SpanID {
	var buf [derivBuf]byte
	sum := sha256.Sum256(append(append(buf[:0], trace[:]...), path...))
	var id SpanID
	copy(id[:], sum[:len(id)])
	return id
}

// derivBuf sizes the stack buffer DeriveID and DeriveSpanID hash from; a
// longer key or path grows it on the heap.
const derivBuf = 256

// CatCluster marks spans that describe cross-shard transport (peer fetches,
// federation fan-out). The fleet layer's pipeline hash excludes this
// category, so a request computed through a peer and the same request
// computed locally hash to the same pipeline identity.
const CatCluster = "cluster"

// Trace collects the spans of one request. Spans may be created and ended
// from any goroutine; the trace serializes its span list under a mutex.
//
// A trace owns the storage of its spans. Spans live in per-trace chunks
// that grow geometrically, their paths in a per-trace byte arena, and attrs
// past a span's inline one in per-trace attr chunks. The root, the first
// span chunk and the first arena chunk are inline, so a short trace (a
// cache hit: the root and one child) is one allocation.
//
// Freeze ends a trace's recording, so a trace store can keep the spans
// and render the document only when someone reads it.
type Trace struct {
	mu     sync.Mutex
	id     ID
	epoch  time.Time
	origin string // the incoming W3C traceparent, non-canonical metadata
	// frozen is set once by Freeze, under mu; endNS is the instant its
	// un-ended spans close at. Span writers read frozen under their
	// span's lock.
	frozen atomic.Bool
	endNS  int64
	// held counts the heap bytes of the span chunks, arena chunks and
	// attr chunks added so far (Size).
	held int
	// spans indexes every span, the root first. It grows with the span
	// chunks, so it reallocates at most when a chunk is added.
	spans []*Span
	// free, arena and attrFree are the unused tails of the current span
	// chunk, path arena chunk and attr chunk; chunk is the size of the
	// last span chunk.
	free     []Span
	chunk    int
	arena    []byte
	attrFree []attr
	root     Span
	first    [firstSpans]Span
	index    [1 + firstSpans]*Span
	pathBuf  [firstArena]byte
}

// Chunk sizes. The inline first chunk and arena fit a cache-hit trace;
// later span chunks double from 8 up to maxSpans spans, arena chunks from
// minArena up to maxArena bytes, and attr chunks hold attrChunk attrs.
const (
	firstSpans = 1
	firstArena = 32
	maxSpans   = 32
	minArena   = 1024
	maxArena   = 8192
	attrChunk  = 32
	// spillAttrs is the capacity a span's attrs move to, carved from the
	// trace's attr chunk, when its inline attr is taken.
	spillAttrs = 4
)

// New starts a trace with the given id and a root span. The root's id is
// DeriveSpanID(id, rootName), so it is reproducible from the outside — the
// serve layer emits it in the response traceparent before the request has
// even computed.
func New(id ID, rootName, cat string) *Trace {
	t := &Trace{id: id, epoch: time.Now()}
	t.root.t = t
	t.root.id = DeriveSpanID(id, rootName)
	t.root.path = rootName
	t.root.name = rootName
	t.root.cat = cat
	t.spans = append(t.index[:0], &t.root)
	t.free = t.first[:]
	t.arena = t.pathBuf[:0]
	return t
}

// newSpan takes the next span slot, adding a chunk when the current one is
// full. The caller holds t.mu.
func (t *Trace) newSpan() *Span {
	if len(t.free) == 0 {
		t.chunk = min(max(2*t.chunk, 8), maxSpans)
		t.free = make([]Span, t.chunk)
		t.held += t.chunk * int(unsafe.Sizeof(Span{}))
		if need := len(t.spans) + t.chunk; cap(t.spans) < need {
			idx := make([]*Span, len(t.spans), max(2*cap(t.spans), need))
			copy(idx, t.spans)
			t.spans = idx
		}
	}
	c := &t.free[0]
	t.free = t.free[1:]
	return c
}

// intern copies p into the trace's path arena and returns it as a string
// over the arena's bytes, which are never written again. The caller holds
// t.mu.
func (t *Trace) intern(p []byte) string {
	if cap(t.arena)-len(t.arena) < len(p) {
		n := min(max(2*cap(t.arena), minArena), maxArena)
		t.arena = make([]byte, 0, max(n, len(p)))
		t.held += cap(t.arena)
	}
	at := len(t.arena)
	t.arena = append(t.arena, p...)
	return unsafe.String(&t.arena[at], len(p))
}

// carveAttrs returns an empty attr slice of capacity n from the trace's
// attr chunk. The caller holds t.mu.
func (t *Trace) carveAttrs(n int) []attr {
	if len(t.attrFree) < n {
		t.attrFree = make([]attr, max(attrChunk, n))
		t.held += len(t.attrFree) * int(unsafe.Sizeof(attr{}))
	}
	blk := t.attrFree[:0:n]
	t.attrFree = t.attrFree[n:]
	return blk
}

// ID returns the trace id; a nil trace returns the zero id.
func (t *Trace) ID() ID {
	if t == nil {
		return ID{}
	}
	return t.id
}

// Len returns the number of spans recorded so far, root included: the
// span count Render reports. A nil trace has none.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Freeze ends the trace's recording: spans still open close at this
// instant, and every later Child, ChildCat, ChildJoin or ChildIndex
// (which return nil), attr, SetVirtual, End and SetOrigin is dropped. So
// every Render and Export after it is byte-identical, whatever goroutines
// still hold the trace's spans. Freezing again changes nothing.
//
// It reports an error, as Render would, when a value passed through Attr
// cannot render (NaN, ±Inf, a channel): a trace Freeze accepted always
// renders. A nil trace freezes trivially.
func (t *Trace) Freeze() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if !t.frozen.Load() {
		t.endNS = int64(time.Since(t.epoch))
		t.frozen.Store(true)
	}
	spans := t.spans
	t.mu.Unlock()
	// A writer that took its span's lock before the freeze finishes before
	// this visit does; one that takes it after sees frozen and drops.
	var err error
	for _, s := range spans {
		s.mu.Lock()
		for i := range s.attrs {
			if a := &s.attrs[i]; a.kind == kindAny && err == nil {
				_, err = appendValue(nil, a.val)
			}
		}
		s.mu.Unlock()
	}
	return err
}

// DurationUS returns the root span's wall duration in microseconds, the
// duration_us Render reports: an un-ended root closes at the freeze
// instant, or now if the trace is not frozen. A nil trace returns 0.
func (t *Trace) DurationUS() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	now := t.closeNS()
	t.mu.Unlock()
	r := &t.root
	r.mu.Lock()
	end := r.endNS
	if !r.ended {
		end = now
	}
	r.mu.Unlock()
	return (end - r.startNS) / 1e3
}

// closeNS returns the instant un-ended spans close at: the freeze
// instant, or the current time since the epoch. The caller holds t.mu.
func (t *Trace) closeNS() int64 {
	if t.frozen.Load() {
		return t.endNS
	}
	return int64(time.Since(t.epoch))
}

// Size returns the heap bytes the trace holds for its spans: the Trace
// itself, its span chunks and index, and its path arena and attr chunks.
// Strings an attr refers to and values boxed through Attr are not
// counted. A nil trace holds none.
func (t *Trace) Size() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(unsafe.Sizeof(*t)) + t.held
	if cap(t.spans) > len(t.index) {
		n += cap(t.spans) * int(unsafe.Sizeof(t.spans[0]))
	}
	return n
}

// FormatRef renders an exemplar reference in one stack buffer:
// "trace:<trace id>", which names the document served by
// /v1/traces/<trace id>, followed by "/<span id>" for a non-zero span id,
// which names the span inside it. A zero trace id renders "".
func FormatRef(trace ID, span SpanID) string {
	if trace.IsZero() {
		return ""
	}
	var b [len("trace:") + 2*len(ID{}) + 1 + 2*len(SpanID{})]byte
	n := copy(b[:], "trace:")
	n += hex.Encode(b[n:], trace[:])
	if !span.IsZero() {
		b[n] = '/'
		n += 1 + hex.Encode(b[n+1:], span[:])
	}
	return string(b[:n])
}

// Root returns the root span; a nil trace returns a nil (no-op) span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return &t.root
}

// SetOrigin records the incoming W3C traceparent header (metadata only; it
// does not re-parent the trace).
func (t *Trace) SetOrigin(traceparent string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.frozen.Load() {
		t.origin = traceparent
	}
	t.mu.Unlock()
}

// Span is one node of the trace tree. A nil span is a no-op.
type Span struct {
	t      *Trace
	id     SpanID
	parent SpanID
	path   string // in the trace's arena; the root's is its name
	name   string // the last element of path, sharing its bytes
	cat    string

	mu      sync.Mutex
	startNS int64 // relative to the trace epoch
	endNS   int64
	ended   bool
	// virt marks which of the virtual-clock attrs sim_t0 (t0) and sim_t1
	// (t1) are set; they render among attrs under those keys.
	virt   uint8
	t0, t1 float64
	// attrs starts in inline and moves to a carved chunk when it fills.
	attrs  []attr
	inline [1]attr
}

// The virt bits and the keys they render under.
const (
	virtT0 = 1 << iota
	virtT1
	keyT0 = "sim_t0"
	keyT1 = "sim_t1"
)

// attrKind is the type an attr value was recorded with.
type attrKind uint8

const (
	// kindAny holds a value passed through Attr, rendered as encoding/json
	// renders it.
	kindAny attrKind = iota
	kindString
	kindInt
	kindFloat
	kindBool
)

// attr is one recorded key/value pair: a typed value in num (int64 or
// float64 bits, or 0/1) or str, or an Attr value in val.
type attr struct {
	key  string
	kind attrKind
	num  uint64
	str  string
	val  any
}

// Child opens a sub-span. The child's id derives from the parent's path
// plus the child's name; give siblings distinct names (the pipeline bakes
// indices and attempt ordinals into them). Nil spans return nil children.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.child(s.cat, "", "", name, false, 0)
}

// ChildCat opens a sub-span with an explicit category instead of inheriting
// the parent's. Cross-shard transport spans use CatCluster so the pipeline
// hash can exclude them.
func (s *Span) ChildCat(name, cat string) *Span {
	if s == nil {
		return nil
	}
	return s.child(cat, "", "", name, false, 0)
}

// ChildJoin opens a sub-span named prefix+name ("run "+model, "state "+
// name) without building the name first, so a nil span costs nothing.
func (s *Span) ChildJoin(prefix, name string) *Span {
	if s == nil {
		return nil
	}
	return s.child(s.cat, prefix, "", name, false, 0)
}

// ChildIndex opens a sub-span named prefix+infix+i, i in decimal ("sim"+
// " job "+3), without building the name first.
func (s *Span) ChildIndex(prefix, infix string, i int) *Span {
	if s == nil {
		return nil
	}
	return s.child(s.cat, prefix, infix, "", true, i)
}

// child opens the sub-span named a+b+c, then i in decimal when indexed.
// The path is built behind the trace id in the buffer its id hashes from,
// as DeriveSpanID does, and copied into the arena under the trace's lock.
func (s *Span) child(cat, a, b, c string, indexed bool, i int) *Span {
	t := s.t
	var buf [derivBuf]byte
	p := append(append(buf[:0], t.id[:]...), s.path...)
	p = append(append(append(append(p, '/'), a...), b...), c...)
	if indexed {
		p = strconv.AppendInt(p, int64(i), 10)
	}
	sum := sha256.Sum256(p)
	t.mu.Lock()
	if t.frozen.Load() {
		t.mu.Unlock()
		return nil
	}
	sp := t.newSpan()
	sp.t = t
	copy(sp.id[:], sum[:])
	sp.parent = s.id
	sp.path = t.intern(p[len(t.id):])
	sp.name = sp.path[len(s.path)+1:]
	sp.cat = cat
	sp.startNS = int64(time.Since(t.epoch))
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Attr attaches a key/value pair to the span, replacing the key's earlier
// value. Values must marshal to JSON deterministically (numbers, strings,
// bools); pipeline attrs are all pure functions of the request identity,
// which is what keeps the canonical tree byte-identical across worker
// counts. A value encoding/json rejects (NaN, ±Inf) makes Render fail.
// Pipeline code uses the typed setters, which do not box. Nil spans
// discard.
func (s *Span) Attr(key string, value any) *Span {
	return s.set(attr{key: key, kind: kindAny, val: value})
}

// Str attaches a string attr.
func (s *Span) Str(key, v string) *Span {
	return s.set(attr{key: key, kind: kindString, str: v})
}

// Int attaches an integer attr.
func (s *Span) Int(key string, v int) *Span {
	return s.set(attr{key: key, kind: kindInt, num: uint64(v)})
}

// Float attaches a float attr. A finite value renders as encoding/json
// renders it; NaN and ±Inf render as the strings "NaN", "+Inf" and "-Inf",
// so a recorded trace always renders.
func (s *Span) Float(key string, v float64) *Span {
	return s.set(attr{key: key, kind: kindFloat, num: math.Float64bits(v)})
}

// Bool attaches a boolean attr.
func (s *Span) Bool(key string, v bool) *Span {
	a := attr{key: key, kind: kindBool}
	if v {
		a.num = 1
	}
	return s.set(a)
}

func (s *Span) set(a attr) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.t.frozen.Load() {
		s.mu.Unlock()
		return s
	}
	switch {
	case s.virt&virtT0 != 0 && a.key == keyT0:
		s.virt &^= virtT0
	case s.virt&virtT1 != 0 && a.key == keyT1:
		s.virt &^= virtT1
	}
	for i := range s.attrs {
		if s.attrs[i].key == a.key {
			s.attrs[i] = a
			s.mu.Unlock()
			return s
		}
	}
	switch {
	case s.attrs == nil:
		s.attrs = s.inline[:0]
	case len(s.attrs) == len(s.inline) && cap(s.attrs) == len(s.inline):
		s.t.mu.Lock()
		spill := s.t.carveAttrs(spillAttrs)
		s.t.mu.Unlock()
		s.attrs = append(spill, s.attrs...)
	}
	s.attrs = append(s.attrs, a)
	s.mu.Unlock()
	return s
}

// SetVirtual records the span's interval on the simulation's virtual clock
// (server-clock seconds). It renders as the attrs sim_t0 and sim_t1, like
// Float, but is kept in two fields of the span.
func (s *Span) SetVirtual(t0, t1 float64) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.t.frozen.Load() {
		s.mu.Unlock()
		return s
	}
	if len(s.attrs) > 0 {
		kept := s.attrs[:0]
		for _, a := range s.attrs {
			if a.key != keyT0 && a.key != keyT1 {
				kept = append(kept, a)
			}
		}
		clear(s.attrs[len(kept):])
		s.attrs = kept
	}
	s.t0, s.t1, s.virt = t0, t1, virtT0|virtT1
	s.mu.Unlock()
	return s
}

// End closes the span; ending twice is a no-op so defer composes with early
// ends. An un-ended span renders with the trace's final timestamp: the
// freeze instant, or the render's.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended && !s.t.frozen.Load() {
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

// TraceID returns the id of the span's trace; nil spans return the zero
// id.
func (s *Span) TraceID() ID {
	if s == nil {
		return ID{}
	}
	return s.t.id
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
