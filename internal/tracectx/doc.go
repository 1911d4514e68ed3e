package tracectx

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
)

// Schema identifies the trace document format served by /v1/traces and
// consumed by `powerbench trace`.
const Schema = "powerbench-trace-v1"

// SpanDoc is the exported form of one span.
type SpanDoc struct {
	// ID and Parent are the identity-derived span ids (16 hex chars); the
	// root span has an empty Parent.
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	// Path is the /-joined chain of span names from the root; it is the
	// span's identity and the document's canonical sort key.
	Path string `json:"path"`
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	// StartUS/DurUS are wall-clock microseconds relative to the trace start.
	// They are the forensic payload but are excluded from the canonical
	// rendering: wall time is scheduling-dependent by nature.
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Doc is the exported form of one trace.
type Doc struct {
	Schema string `json:"schema"`
	Trace  string `json:"trace"`
	// Key is the canonical request key the trace id derives from.
	Key string `json:"key,omitempty"`
	// Status is the HTTP status the request resolved to; Reason is the
	// tail-sampling retention reason (error, faulted, slow, cache-miss,
	// sampled).
	Status int    `json:"status,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Flight cross-links the daemon's flight record for the same request.
	Flight string `json:"flight,omitempty"`
	// Origin is the incoming W3C traceparent header, if any.
	Origin string `json:"origin,omitempty"`
	// DurationUS is the root span's wall duration in microseconds.
	DurationUS int64 `json:"duration_us"`
	// TreeHash is the SHA-256 of the canonical rendering: span paths, names,
	// categories and attrs in path order, with all wall timings and request
	// metadata stripped. Identical pipeline work yields an identical hash at
	// any worker count.
	TreeHash string `json:"tree_hash"`
	// PipelineHash is the tree hash with CatCluster (cross-shard transport)
	// spans excluded: the identity of the computation itself, equal across a
	// standalone daemon, the owning shard, and a stitched federated view.
	PipelineHash string `json:"pipeline_hash,omitempty"`
	// Partial marks a federated document assembled while one or more shards
	// were unreachable; the spans present are still canonical.
	Partial bool `json:"partial,omitempty"`
	// Shards lists the shard ids whose stores contributed spans to a
	// stitched document (sorted; empty on single-process exports).
	Shards []string  `json:"shards,omitempty"`
	Spans  []SpanDoc `json:"spans"`
}

// row is one span of an ordered trace: its index and its path in the
// scratch's path bytes.
type row struct{ i, off, n uint32 }

// order lays out every span's path in sc.paths and returns the spans'
// rows sorted by path. Export and Render both read spans through it, so
// they list them in the same order, ties included. The caller holds t.mu.
func (t *Trace) order(sc *renderScratch) []row {
	rows, paths := sc.rows[:0], sc.paths[:0]
	for i := range uint32(t.n) {
		s := t.spanAt(i)
		at := len(paths)
		if i > 0 {
			p := rows[s.parent]
			paths = append(append(paths, paths[p.off:p.off+p.n]...), '/')
		}
		paths = append(paths, t.bytes(s.name)...)
		rows = append(rows, row{i, uint32(at), uint32(len(paths) - at)})
	}
	slices.SortFunc(rows, func(x, y row) int {
		return bytes.Compare(paths[x.off:x.off+x.n], paths[y.off:y.off+y.n])
	})
	sc.rows, sc.paths = rows, paths
	return rows
}

// path returns r's path in the scratch's path bytes.
func (sc *renderScratch) path(r row) []byte { return sc.paths[r.off : r.off+r.n] }

// Export snapshots the trace into its document form: spans sorted by path,
// un-ended spans closed at the snapshot instant, and the tree hash computed
// over the canonical rendering. A nil trace exports a nil doc.
func (t *Trace) Export() *Doc {
	if t == nil {
		return nil
	}
	sc := renderPool.Get().(*renderScratch)
	defer renderPool.Put(sc)
	t.mu.Lock()
	rows := t.order(sc)
	now := t.closeNS()
	docs := make([]SpanDoc, 0, len(rows))
	for _, r := range rows {
		s := t.spanAt(r.i)
		end := s.endNS
		if !s.ended {
			end = now
		}
		d := SpanDoc{
			ID:      s.id.String(),
			Path:    string(sc.path(r)),
			Name:    t.str(s.name),
			Cat:     t.str(s.cat),
			StartUS: s.startNS / 1e3,
			DurUS:   (end - s.startNS) / 1e3,
			Attrs:   s.exportAttrs(),
		}
		if r.i != 0 {
			d.Parent = t.spanAt(s.parent).id.String()
		}
		docs = append(docs, d)
	}
	doc := &Doc{
		Schema: Schema,
		Trace:  t.id.String(),
		Origin: t.origin,
		Spans:  docs,
	}
	t.mu.Unlock()
	for _, d := range docs {
		if d.Parent == "" {
			doc.DurationUS = d.DurUS
			break
		}
	}
	doc.Rehash()
	return doc
}

// exportAttrs returns the span's attrs as a SpanDoc carries them, nil when
// it has none. The caller holds the trace's lock.
func (s *Span) exportAttrs() map[string]any {
	if s.attrs == 0 && s.virt == 0 {
		return nil
	}
	t := s.t
	attrs := make(map[string]any)
	for i := s.attrs; i != 0; i = t.attrs[i-1].next {
		a := &t.attrs[i-1]
		attrs[t.str(a.key)] = t.exported(a)
	}
	if s.virt&virtT0 != 0 {
		attrs[keyT0] = typedFloat(s.t0)
	}
	if s.virt&virtT1 != 0 {
		attrs[keyT1] = typedFloat(s.t1)
	}
	return attrs
}

// exported is an attr's value as Export puts it in a SpanDoc: its Go type,
// with a non-finite float as its string.
func (t *Trace) exported(a *attr) any {
	switch a.kind {
	case kindString:
		return t.str(a.strRef())
	case kindInt:
		return int(int64(a.num))
	case kindFloat:
		return typedFloat(math.Float64frombits(a.num))
	}
	return a.num != 0
}

// typedFloat is a typed float as Export puts it in a SpanDoc.
func typedFloat(f float64) any {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nonFinite(f)
	}
	return f
}

// Meta is the request metadata a stored trace document carries beside its
// spans (the Doc fields of the same names).
type Meta struct {
	Key    string
	Status int
	Reason string
	Flight string
}

// Stored is a trace rendered for a trace store: the document and the
// listing fields read off the same snapshot.
type Stored struct {
	// Body is the document as json.MarshalIndent(doc, "", "  ") renders
	// Export's doc with the Meta fields set, plus a trailing newline.
	Body       []byte
	Trace      string
	DurationUS int64
	Spans      int
}

// renderScratch holds the working buffers of Render and Export between
// calls.
type renderScratch struct {
	canon, pipe, spans, doc, paths []byte
	rows                           []row
	indent                         bytes.Buffer
}

var renderPool = sync.Pool{New: func() any { return new(renderScratch) }}

// Render snapshots the trace and renders its stored document with m's
// metadata in one pass over the spans, without building a Doc. The spans
// are read under the trace's lock, and in that visit each span's canonical
// form is appended to the tree-hash rendering and its full form to the
// document, so a span still being written cannot make the hashes disagree
// with the body. Every recorded trace renders: a non-finite float renders
// as a string. A nil trace renders nothing.
func (t *Trace) Render(m Meta) Stored {
	if t == nil {
		return Stored{}
	}
	sc := renderPool.Get().(*renderScratch)
	defer renderPool.Put(sc)
	t.mu.Lock()
	durUS, spans, pipe := t.renderSpans(sc)
	origin := t.origin
	t.mu.Unlock()
	tree := sha256.Sum256(sc.canon)
	pipeline := tree
	if pipe != nil {
		pipeline = sha256.Sum256(pipe)
	}

	doc := append(sc.doc[:0], `{"schema":"`+Schema+`","trace":"`...)
	doc = hex.AppendEncode(doc, t.id[:])
	doc = append(doc, '"')
	doc = appendMember(doc, `,"key":`, m.Key)
	if m.Status != 0 {
		doc = append(doc, `,"status":`...)
		doc = strconv.AppendInt(doc, int64(m.Status), 10)
	}
	doc = appendMember(doc, `,"reason":`, m.Reason)
	doc = appendMember(doc, `,"flight":`, m.Flight)
	doc = appendMember(doc, `,"origin":`, origin)
	doc = append(doc, `,"duration_us":`...)
	doc = strconv.AppendInt(doc, durUS, 10)
	doc = append(doc, `,"tree_hash":"`...)
	doc = hex.AppendEncode(doc, tree[:])
	doc = append(doc, `","pipeline_hash":"`...)
	doc = hex.AppendEncode(doc, pipeline[:])
	doc = append(doc, `","spans":[`...)
	doc = append(doc, sc.spans...)
	doc = append(doc, "]}"...)

	sc.doc = doc
	sc.indent.Reset()
	// json.Indent fails only on malformed JSON, which the appender never
	// writes.
	if err := json.Indent(&sc.indent, doc, "", "  "); err != nil {
		panic(fmt.Sprintf("tracectx: render: %v", err))
	}
	out := make([]byte, sc.indent.Len()+1)
	copy(out, sc.indent.Bytes())
	out[len(out)-1] = '\n'
	return Stored{Body: out, Trace: t.id.String(), DurationUS: durUS, Spans: spans}
}

// renderSpans renders every span in path order: the tree-hash rendering
// into sc.canon and the document's span list into sc.spans. It returns the
// root's duration, the span count and, when a cluster span exists, the
// tree-hash rendering without cluster spans. The caller holds t.mu.
func (t *Trace) renderSpans(sc *renderScratch) (durUS int64, spans int, pipe []byte) {
	rows := t.order(sc)
	now := t.closeNS()
	canon := appendCanonicalHead(sc.canon[:0], "")
	pipeSpans := 0
	body := sc.spans[:0]
	var idHex, parentHex [2 * len(SpanID{})]byte
	for k, r := range rows {
		s := t.spanAt(r.i)
		hex.Encode(idHex[:], s.id[:])
		parent := parentHex[:0]
		if r.i != 0 {
			hex.Encode(parentHex[:], t.spanAt(s.parent).id[:])
			parent = parentHex[:]
		}
		mark := len(canon)
		if k > 0 {
			canon = append(canon, ',')
			body = append(body, ',')
		}
		at := len(canon)
		cat := t.bytes(s.cat)
		canon = appendSpanHead(canon, idHex[:], parent, sc.path(r), t.bytes(s.name), cat)
		head := len(canon)
		canon = t.appendAttrs(canon, s)
		end := s.endNS
		if !s.ended {
			end = now
		}
		startUS, spanUS := s.startNS/1e3, (end-s.startNS)/1e3
		body = append(body, canon[at:head]...)
		body = appendSpanTimes(body, startUS, spanUS)
		body = append(body, canon[head:]...)
		if r.i == 0 {
			durUS = spanUS
		}
		switch {
		case string(cat) == CatCluster:
			if pipe == nil {
				pipe = append(sc.pipe[:0], canon[:mark]...)
				pipeSpans = k
			}
		case pipe != nil:
			if pipeSpans > 0 {
				pipe = append(pipe, ',')
			}
			pipe = append(pipe, canon[at:]...)
			pipeSpans++
		}
	}
	canon = append(canon, "]}"...)
	if pipe != nil {
		pipe = append(pipe, "]}"...)
		sc.pipe = pipe
	}
	sc.canon, sc.spans = canon, body
	return durUS, len(rows), pipe
}

// appendMember appends an omitempty string member: name (with its leading
// comma and colon) and v, or nothing when v is empty.
func appendMember(b []byte, name, v string) []byte {
	if v == "" {
		return b
	}
	return appendString(append(b, name...), v)
}

// Rehash recomputes TreeHash and PipelineHash from the document's current
// span set. Export calls it; the fleet layer calls it again after stitching
// spans from several shards into one document.
func (d *Doc) Rehash() {
	if d == nil {
		return
	}
	b := mustCanonical(nil, "", d.Spans, "")
	d.TreeHash = hashHex(b)
	d.PipelineHash = d.TreeHash
	for _, s := range d.Spans {
		if s.Cat == CatCluster {
			d.PipelineHash = hashHex(mustCanonical(b[:0], "", d.Spans, CatCluster))
			break
		}
	}
}

// CanonicalJSON renders the document's canonical form: the path-ordered
// span tree without wall timings or request metadata. Two requests that did
// the same pipeline work render byte-identically, whatever the `-jobs`
// count or how slow the machine was.
func (d *Doc) CanonicalJSON() []byte {
	return mustCanonical(nil, d.Trace, d.Spans, "")
}

// appendCanonicalHead opens the canonical rendering of trace's span list.
func appendCanonicalHead(b []byte, trace string) []byte {
	b = append(b, `{"schema":"`+Schema+`","trace":`...)
	b = appendString(b, trace)
	return append(b, `,"spans":[`...)
}

// mustCanonical appends the canonical rendering of spans under trace id
// trace, leaving out spans of category drop when drop is non-empty. The
// tree hash is the SHA-256 of this rendering with an empty trace id.
func mustCanonical(b []byte, trace string, spans []SpanDoc, drop string) []byte {
	b = appendCanonicalHead(b, trace)
	first := true
	for i := range spans {
		s := &spans[i]
		if drop != "" && s.Cat == drop {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		var err error
		b = appendSpanHead(b, s.ID, s.Parent, s.Path, s.Name, s.Cat)
		if b, err = appendSpanAttrs(b, s.Attrs); err != nil {
			panic(fmt.Sprintf("tracectx: canonical marshal: %v", err))
		}
	}
	return append(b, "]}"...)
}

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}

// ParseDoc decodes a trace document, checking the schema marker.
func ParseDoc(b []byte) (*Doc, error) {
	var d Doc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("tracectx: parsing trace doc: %w", err)
	}
	if d.Schema != Schema {
		return nil, fmt.Errorf("tracectx: unsupported trace schema %q (want %q)", d.Schema, Schema)
	}
	return &d, nil
}
