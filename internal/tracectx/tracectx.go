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
// A trace is compact and nearly pointer-free: an 80-byte Span whose only
// pointer is its trace, and every span name, category, attr key and string
// value copied into one per-trace byte arena. Paths are not stored; they
// are rebuilt from the names when a child is opened or the trace renders.
//
// Every entry point is nil-safe the way internal/obs is: a nil *Trace or
// nil *Span turns the layer into a no-op costing one pointer comparison, so
// instrumented pipeline code needs no conditional wiring. For an untraced
// request to allocate nothing, callers pass span names in parts (ChildJoin,
// ChildIndex) rather than concatenated. Attr values are typed (Str, Int,
// Float, Bool, SetVirtual), never boxed, so every recorded trace renders:
// a non-finite float renders as a string.
package tracectx

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/bits"
	"strconv"
	"sync"
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

// Trace collects the spans of one request. Spans may be created, written
// and ended from any goroutine; the trace's mutex guards every span write.
//
// A trace owns the storage of its spans, and all of it but the span chunks
// is pointer-free. Spans live in per-trace chunks that grow geometrically
// and never move, so a *Span stays valid. Names, categories, attr keys and
// string values live in a byte arena, and attrs in an attr slice; both
// grow by doubling and are addressed by offset, so growing them moves
// nothing a span refers to. The first two spans, the first attr and the
// first arena bytes are inline, so a short trace (a cache hit: the root
// and one child with one attr) is one allocation.
//
// Freeze ends a trace's recording, so a trace store can keep the spans
// and render the document only when someone reads it.
type Trace struct {
	mu     sync.Mutex
	frozen bool // set once by Freeze
	id     ID
	epoch  time.Time
	endNS  int64  // the instant Freeze closed un-ended spans at
	origin string // the incoming W3C traceparent, non-canonical metadata
	// n counts the spans, root included. Span i < firstSpans is first[i];
	// later ones are in chunks (chunkOf).
	n      int
	chunks [][]Span
	arena  []byte
	attrs  []attr
	first  [firstSpans]Span
	attr0  [firstAttrs]attr
	bytes0 [firstArena]byte
}

// Storage sizes. The inline spans, attrs and arena fit a cache-hit trace;
// later span chunks double from minSpans up to maxSpans spans, and the
// arena and attr slice double from minArena bytes and minAttrs attrs.
const (
	firstSpans = 2
	firstAttrs = 1
	firstArena = 64
	minSpans   = 4
	maxSpans   = 32
	minArena   = 256
	minAttrs   = 8
	// firstChunks is the chunk list's first capacity: an evaluation's
	// 83–104 spans fill 5 or 6 chunks.
	firstChunks = 8
	// growChunks is the number of doubling span chunks, and growSpans the
	// spans they hold.
	growChunks = 4
	growSpans  = minSpans<<growChunks - minSpans
)

// chunkOf maps span firstSpans+j to its chunk and its offset there.
func chunkOf(j int) (k, off int) {
	if j >= growSpans {
		j -= growSpans
		return growChunks + j/maxSpans, j % maxSpans
	}
	k = bits.Len(uint(j/minSpans+1)) - 1
	return k, j - minSpans*(1<<k-1)
}

// chunkLen is the number of spans chunk k holds.
func chunkLen(k int) int {
	if k >= growChunks {
		return maxSpans
	}
	return minSpans << k
}

// New starts a trace with the given id and a root span. The root's id is
// DeriveSpanID(id, rootName), so it is reproducible from the outside — the
// serve layer emits it in the response traceparent before the request has
// even computed.
func New(id ID, rootName, cat string) *Trace {
	t := &Trace{id: id, epoch: time.Now(), n: 1}
	t.arena = t.bytes0[:0]
	t.attrs = t.attr0[:0]
	r := &t.first[0]
	r.t = t
	r.id = DeriveSpanID(id, rootName)
	r.name = put(t, rootName)
	r.cat = put(t, cat)
	return t
}

// spanAt returns span i. The caller holds t.mu.
func (t *Trace) spanAt(i uint32) *Span {
	if i < firstSpans {
		return &t.first[i]
	}
	k, off := chunkOf(int(i) - firstSpans)
	return &t.chunks[k][off]
}

// newSpan takes the next span slot, adding a chunk when the current one is
// full. The caller holds t.mu.
func (t *Trace) newSpan() *Span {
	i := t.n
	t.n++
	if i < firstSpans {
		t.first[i].index = uint32(i)
		return &t.first[i]
	}
	k, off := chunkOf(i - firstSpans)
	if off == 0 {
		if t.chunks == nil {
			t.chunks = make([][]Span, 0, firstChunks)
		}
		t.chunks = append(t.chunks, make([]Span, chunkLen(k)))
	}
	sp := &t.chunks[k][off]
	sp.index = uint32(i)
	return sp
}

// ref names a run of bytes in the trace's arena.
type ref struct{ off, n uint32 }

// put copies b into the trace's arena, doubling it when it is full, and
// returns its ref. Bytes in the arena are never written again. The caller
// holds t.mu.
func put[T string | []byte](t *Trace, b T) ref {
	if len(t.arena)+len(b) > cap(t.arena) {
		grown := make([]byte, len(t.arena), max(2*cap(t.arena), minArena, len(t.arena)+len(b)))
		copy(grown, t.arena)
		t.arena = grown
	}
	r := ref{uint32(len(t.arena)), uint32(len(b))}
	t.arena = append(t.arena, b...)
	return r
}

// bytes returns the arena bytes r names. The caller holds t.mu.
func (t *Trace) bytes(r ref) []byte { return t.arena[r.off : r.off+r.n : r.off+r.n] }

// str returns the arena bytes r names as a string that shares them, which
// is safe because arena bytes are never written again.
func (t *Trace) str(r ref) string {
	return unsafe.String(unsafe.SliceData(t.arena[r.off:]), r.n)
}

// appendPath appends span s's path, the /-joined names from the root. The
// caller holds t.mu.
func (t *Trace) appendPath(b []byte, s *Span) []byte {
	if s.index != 0 {
		b = append(t.appendPath(b, t.spanAt(s.parent)), '/')
	}
	return append(b, t.bytes(s.name)...)
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
	return t.n
}

// Freeze ends the trace's recording: spans still open close at this
// instant, and every later Child, ChildCat, ChildJoin or ChildIndex
// (which return nil), attr, SetVirtual, End and SetOrigin is dropped. So
// every Render and Export after it is byte-identical, whatever goroutines
// still hold the trace's spans. Freezing again changes nothing. Every span
// write takes the trace's lock and checks the flag, so setting it under
// that lock is all a freeze takes. A nil trace freezes trivially.
func (t *Trace) Freeze() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.frozen {
		t.endNS = int64(time.Since(t.epoch))
		t.frozen = true
	}
	t.mu.Unlock()
}

// DurationUS returns the root span's wall duration in microseconds, the
// duration_us Render reports: an un-ended root closes at the freeze
// instant, or now if the trace is not frozen. A nil trace returns 0.
func (t *Trace) DurationUS() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &t.first[0]
	end := r.endNS
	if !r.ended {
		end = t.closeNS()
	}
	return (end - r.startNS) / 1e3
}

// closeNS returns the instant un-ended spans close at: the freeze
// instant, or the current time since the epoch. The caller holds t.mu.
func (t *Trace) closeNS() int64 {
	if t.frozen {
		return t.endNS
	}
	return int64(time.Since(t.epoch))
}

// Size returns the heap bytes the trace holds: the Trace itself, its span
// chunks and their list, the arena with every name, category, attr key
// and string value, and the attr slice. A nil trace holds none.
func (t *Trace) Size() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(unsafe.Sizeof(*t)) + cap(t.chunks)*int(unsafe.Sizeof(t.chunks[0]))
	for _, c := range t.chunks {
		n += cap(c) * int(unsafe.Sizeof(c[0]))
	}
	if cap(t.arena) > firstArena {
		n += cap(t.arena)
	}
	if cap(t.attrs) > firstAttrs {
		n += cap(t.attrs) * int(unsafe.Sizeof(attr{}))
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
	return &t.first[0]
}

// SetOrigin records the incoming W3C traceparent header (metadata only; it
// does not re-parent the trace).
func (t *Trace) SetOrigin(traceparent string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.frozen {
		t.origin = traceparent
	}
	t.mu.Unlock()
}

// Span is one node of the trace tree. A nil span is a no-op. Its trace's
// lock guards every field but t, id, index, parent and name, which are set
// when the span opens.
type Span struct {
	t     *Trace
	id    SpanID
	index uint32 // in the trace; the root is 0
	// parent is the parent's index; name and cat are in the arena.
	parent  uint32
	name    ref
	cat     ref
	startNS int64 // relative to the trace epoch
	endNS   int64
	t0, t1  float64
	// attrs is 1 + the index of the span's latest new attr in the trace's
	// attr slice, 0 when it has none; each attr links to the one before.
	attrs uint32
	ended bool
	// virt marks which of the virtual-clock attrs sim_t0 (t0) and sim_t1
	// (t1) are set; they render among attrs under those keys.
	virt uint8
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
	kindString attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// attr is one recorded key/value pair, with its key in the arena. num holds
// the value: int64 or float64 bits, 0 or 1, or a string's arena ref (offset
// in the high half, length in the low).
type attr struct {
	key  ref
	next uint32 // 1 + the index of the span's previous attr; 0 ends the list
	kind attrKind
	num  uint64
}

// strRef is a string attr's value.
func (a *attr) strRef() ref { return ref{uint32(a.num >> 32), uint32(a.num)} }

// Child opens a sub-span. The child's id derives from the parent's path
// plus the child's name; give siblings distinct names (the pipeline bakes
// indices and attempt ordinals into them). Nil spans return nil children.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.child("", false, "", "", name, false, 0)
}

// ChildCat opens a sub-span with an explicit category instead of inheriting
// the parent's. Cross-shard transport spans use CatCluster so the pipeline
// hash can exclude them.
func (s *Span) ChildCat(name, cat string) *Span {
	if s == nil {
		return nil
	}
	return s.child(cat, true, "", "", name, false, 0)
}

// ChildJoin opens a sub-span named prefix+name ("run "+model, "state "+
// name) without building the name first, so a nil span costs nothing.
func (s *Span) ChildJoin(prefix, name string) *Span {
	if s == nil {
		return nil
	}
	return s.child("", false, prefix, "", name, false, 0)
}

// ChildIndex opens a sub-span named prefix+infix+i, i in decimal ("sim"+
// " job "+3), without building the name first.
func (s *Span) ChildIndex(prefix, infix string, i int) *Span {
	if s == nil {
		return nil
	}
	return s.child("", false, prefix, infix, "", true, i)
}

// child opens the sub-span named a+b+c, then i in decimal when indexed, in
// category cat when setCat is set and the parent's otherwise. The path is
// built behind the trace id in the buffer its id hashes from, as
// DeriveSpanID does; only the name is copied into the arena.
func (s *Span) child(cat string, setCat bool, a, b, c string, indexed bool, i int) *Span {
	t := s.t
	var buf [derivBuf]byte
	t.mu.Lock()
	if t.frozen {
		t.mu.Unlock()
		return nil
	}
	p := append(t.appendPath(append(buf[:0], t.id[:]...), s), '/')
	at := len(p)
	p = append(append(append(p, a...), b...), c...)
	if indexed {
		p = strconv.AppendInt(p, int64(i), 10)
	}
	sum := sha256.Sum256(p)
	sp := t.newSpan()
	sp.t = t
	copy(sp.id[:], sum[:])
	sp.parent = s.index
	sp.name = put(t, p[at:])
	sp.cat = s.cat
	if setCat && cat != t.str(s.cat) {
		sp.cat = put(t, cat)
	}
	sp.startNS = int64(time.Since(t.epoch))
	t.mu.Unlock()
	return sp
}

// Str attaches a string attr, replacing the key's earlier value whatever
// setter wrote it. Pipeline attrs are all pure functions of the request
// identity, which is what keeps the canonical tree byte-identical across
// worker counts. Nil spans discard, as they do for every setter.
func (s *Span) Str(key, v string) *Span {
	return s.set(key, kindString, 0, v)
}

// Int attaches an integer attr.
func (s *Span) Int(key string, v int) *Span {
	return s.set(key, kindInt, uint64(v), "")
}

// Float attaches a float attr. A finite value renders as encoding/json
// renders it; NaN and ±Inf render as the strings "NaN", "+Inf" and "-Inf",
// so a recorded trace always renders.
func (s *Span) Float(key string, v float64) *Span {
	return s.set(key, kindFloat, math.Float64bits(v), "")
}

// Bool attaches a boolean attr.
func (s *Span) Bool(key string, v bool) *Span {
	var num uint64
	if v {
		num = 1
	}
	return s.set(key, kindBool, num, "")
}

// set records key's value: num for a scalar, str for a string.
func (s *Span) set(key string, kind attrKind, num uint64, str string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return s
	}
	switch {
	case s.virt&virtT0 != 0 && key == keyT0:
		s.virt &^= virtT0
	case s.virt&virtT1 != 0 && key == keyT1:
		s.virt &^= virtT1
	}
	a := t.lookup(s, key)
	if a == nil {
		a = t.newAttr(s, key)
	}
	if kind == kindString {
		r := put(t, str)
		num = uint64(r.off)<<32 | uint64(r.n)
	}
	a.kind, a.num = kind, num
	return s
}

// lookup returns s's attr under key, or nil. The caller holds t.mu.
func (t *Trace) lookup(s *Span, key string) *attr {
	for i := s.attrs; i != 0; {
		a := &t.attrs[i-1]
		if string(t.bytes(a.key)) == key {
			return a
		}
		i = a.next
	}
	return nil
}

// newAttr adds an attr under key to s's list, doubling the attr slice
// when it is full. The caller holds t.mu.
func (t *Trace) newAttr(s *Span, key string) *attr {
	if len(t.attrs) == cap(t.attrs) {
		grown := make([]attr, len(t.attrs), max(2*cap(t.attrs), minAttrs))
		copy(grown, t.attrs)
		t.attrs = grown
	}
	t.attrs = append(t.attrs, attr{key: put(t, key), next: s.attrs})
	s.attrs = uint32(len(t.attrs))
	return &t.attrs[len(t.attrs)-1]
}

// SetVirtual records the span's interval on the simulation's virtual clock
// (server-clock seconds). It renders as the attrs sim_t0 and sim_t1, like
// Float, but is kept in two fields of the span.
func (s *Span) SetVirtual(t0, t1 float64) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return s
	}
	// Unlink attrs written under the virtual-clock keys.
	for next := &s.attrs; *next != 0; {
		a := &t.attrs[*next-1]
		if k := t.str(a.key); k == keyT0 || k == keyT1 {
			*next = a.next
			continue
		}
		next = &a.next
	}
	s.t0, s.t1, s.virt = t0, t1, virtT0|virtT1
	return s
}

// End closes the span; ending twice is a no-op so defer composes with early
// ends. An un-ended span renders with the trace's final timestamp: the
// freeze instant, or the render's.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if !s.ended && !t.frozen {
		s.ended = true
		s.endNS = int64(time.Since(t.epoch))
	}
	t.mu.Unlock()
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
