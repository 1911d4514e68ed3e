package tracectx

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

// This file keeps the reflection-based trace document path as the oracle
// the span appender is held to: Export building a Doc, a canonical
// rendering through encoding/json, and json.MarshalIndent for the stored
// body. Render, CanonicalJSON and Rehash must reproduce its bytes.

// oracleSpan is a SpanDoc stripped to its scheduling-independent fields.
type oracleSpan struct {
	ID     string         `json:"id"`
	Parent string         `json:"parent,omitempty"`
	Path   string         `json:"path"`
	Name   string         `json:"name"`
	Cat    string         `json:"cat,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func oracleCanonicalJSON(trace string, spans []SpanDoc) ([]byte, error) {
	cs := make([]oracleSpan, len(spans))
	for i, s := range spans {
		cs[i] = oracleSpan{ID: s.ID, Parent: s.Parent, Path: s.Path, Name: s.Name, Cat: s.Cat, Attrs: s.Attrs}
	}
	return json.Marshal(struct {
		Schema string       `json:"schema"`
		Trace  string       `json:"trace"`
		Spans  []oracleSpan `json:"spans"`
	}{Schema, trace, cs})
}

func oracleTreeHash(spans []SpanDoc) (string, error) {
	b, err := oracleCanonicalJSON("", spans)
	if err != nil {
		return "", err
	}
	sum := sha256.New()
	sum.Write(b)
	return hex.EncodeToString(sum.Sum(nil)), nil
}

// oracleRehash sets both hashes the way the reflection path did.
func oracleRehash(d *Doc) error {
	tree, err := oracleTreeHash(d.Spans)
	if err != nil {
		return err
	}
	d.TreeHash, d.PipelineHash = tree, tree
	var pipeline []SpanDoc
	for _, s := range d.Spans {
		if s.Cat != CatCluster {
			pipeline = append(pipeline, s)
		}
	}
	if len(pipeline) != len(d.Spans) {
		d.PipelineHash, err = oracleTreeHash(pipeline)
	}
	return err
}

// oracleExport is Export as it was before Render: spans read into SpanDocs
// with hex-encoded ids, sorted by path, hashed through oracleRehash.
func oracleExport(t *Trace) (*Doc, error) {
	t.mu.Lock()
	now := int64(time.Since(t.epoch))
	origin := t.origin
	docs := make([]SpanDoc, 0, t.n)
	for i := range uint32(t.n) {
		s := t.spanAt(i)
		end := s.endNS
		if !s.ended {
			end = now
		}
		attrs := s.exportAttrs()
		d := SpanDoc{
			ID:      hex.EncodeToString(s.id[:]),
			Path:    oraclePath(t, s),
			Name:    string(t.bytes(s.name)),
			Cat:     string(t.bytes(s.cat)),
			StartUS: s.startNS / 1e3,
			DurUS:   (end - s.startNS) / 1e3,
			Attrs:   attrs,
		}
		if i != 0 {
			p := t.spanAt(s.parent)
			d.Parent = hex.EncodeToString(p.id[:])
		}
		docs = append(docs, d)
	}
	t.mu.Unlock()
	sort.Slice(docs, func(i, j int) bool { return docs[i].Path < docs[j].Path })
	doc := &Doc{Schema: Schema, Trace: hex.EncodeToString(t.id[:]), Origin: origin, Spans: docs}
	for _, d := range docs {
		if d.Parent == "" {
			doc.DurationUS = d.DurUS
			break
		}
	}
	return doc, oracleRehash(doc)
}

// oraclePath joins the names from the root down to s.
func oraclePath(t *Trace, s *Span) string {
	if s.index == 0 {
		return string(t.bytes(s.name))
	}
	return oraclePath(t, t.spanAt(s.parent)) + "/" + string(t.bytes(s.name))
}

// oracleBody is the stored body the reflection path produced.
func oracleBody(t *Trace, m Meta) ([]byte, error) {
	doc, err := oracleExport(t)
	if err != nil {
		return nil, err
	}
	doc.Key, doc.Status, doc.Reason, doc.Flight = m.Key, m.Status, m.Reason, m.Flight
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkRender compares Render against the oracle on one settled trace:
// the same bytes and listing fields.
func checkRender(t *testing.T, tr *Trace, m Meta) {
	t.Helper()
	want, err := oracleBody(tr, m)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	got := tr.Render(m)
	if string(got.Body) != string(want) {
		t.Fatalf("Render differs from the oracle:\n got %s\nwant %s", got.Body, want)
	}
	doc, err := oracleExport(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != doc.Trace || got.DurationUS != doc.DurationUS || got.Spans != len(doc.Spans) {
		t.Fatalf("Render listing (%s, %d us, %d spans), oracle (%s, %d us, %d spans)",
			got.Trace, got.DurationUS, got.Spans, doc.Trace, doc.DurationUS, len(doc.Spans))
	}
	// Export's hashes, through the shared appender, equal the oracle's.
	exp := tr.Export()
	if exp.TreeHash != doc.TreeHash || exp.PipelineHash != doc.PipelineHash {
		t.Fatalf("Export hashes %s/%s, oracle %s/%s", exp.TreeHash, exp.PipelineHash, doc.TreeHash, doc.PipelineHash)
	}
	canon, err := oracleCanonicalJSON(doc.Trace, doc.Spans)
	if err != nil {
		t.Fatal(err)
	}
	if got := exp.CanonicalJSON(); string(got) != string(canon) {
		t.Fatalf("CanonicalJSON differs from the oracle:\n got %s\nwant %s", got, canon)
	}
}

// endAll ends every span, so two snapshots taken at different instants
// render the same durations.
func endAll(tr *Trace) {
	tr.mu.Lock()
	spans := make([]*Span, tr.n)
	for i := range spans {
		spans[i] = tr.spanAt(uint32(i))
	}
	tr.mu.Unlock()
	for _, s := range spans {
		s.End()
	}
}

// edgeTrace builds a trace whose attrs cover every value shape a
// recorded span renders: strings the appender escapes by hand or hands to
// json.Marshal, integers at their limits, floats at encoding/json's format
// boundaries and non-finite ones, and both bools.
func edgeTrace(cluster bool) *Trace {
	tr := New(DeriveID("edge"), "POST /v1/compare", "serve")
	tr.SetOrigin("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	root := tr.Root().Int("capacity", 16).Str("html", "<a href=\"x\">&</a>").Str("utf8", "é ").Str("ctl", "a\tb\x00")
	root.Str("lt", "a<b").Str("gt", "a>b").Str("amp", "a&b").Str("del", "a\x7fb").Str("bad", "a\xffb")
	job := root.Child("sim job 0").Float("tiny", 1e-7).Float("huge", 1e21).Float("edge", 1e-6).Float("below", 999999999999999999999.0)
	job.Float("negzero", math.Copysign(0, -1)).Int("max", math.MaxInt64).Int("min", math.MinInt64)
	job.Float("nan", math.NaN()).Float("inf", math.Inf(1)).Float("ninf", math.Inf(-1))
	job.Bool("ok", true).Bool("no", false).Int("u8", 7)
	job.Child("run Idle").SetVirtual(0, 120).End()
	job.End()
	root.Child("cache").Str("result", "miss").End()
	if cluster {
		// "a peer" sorts right after the root, "zz peer" last.
		root.ChildCat("a peer", CatCluster).End()
		root.ChildCat("peer", CatCluster).Str("owner", "s1").Str("result", "hit").End()
		root.ChildCat("zz peer", CatCluster).End()
	}
	root.End()
	return tr
}

func TestRenderMatchesOracle(t *testing.T) {
	m := Meta{Key: "evaluate|k<&>", Status: 200, Reason: "cache-miss", Flight: strings.Repeat("ab", 32)}
	for _, cluster := range []bool{false, true} {
		checkRender(t, edgeTrace(cluster), m)
	}
	checkRender(t, edgeTrace(true), Meta{})

	// Un-ended spans close at the snapshot instant in both paths; with
	// the clock frozen by ending everything first they agree.
	tr := New(DeriveID("open"), "request", "serve")
	tr.Root().Child("a").Child("b")
	endAll(tr)
	checkRender(t, tr, Meta{Status: 429, Reason: "error"})

	// A NaN renders as the string both paths export it as.
	nan := New(DeriveID("nan"), "request", "serve")
	nan.Root().Float("x", math.NaN()).End()
	checkRender(t, nan, Meta{})
	var nilTrace *Trace
	if st := nilTrace.Render(Meta{}); st.Body != nil {
		t.Fatalf("nil trace rendered %q", st.Body)
	}
}

// Stitched and parsed documents carry arbitrary id strings and the attr
// types encoding/json decodes into; Rehash and CanonicalJSON still match
// the reflection rendering.
func TestRehashMatchesOracleOnParsedDocs(t *testing.T) {
	body, err := json.Marshal(edgeTrace(true).Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		string(body),
		`{"schema":"powerbench-trace-v1","trace":"t","spans":[]}`,
		`{"schema":"powerbench-trace-v1","spans":[{"id":"<r>","path":"r ","attrs":{"k":[1,{"x":null}],"":"é"}},{"id":"c","parent":"<r>","cat":"cluster","path":"r/c"}]}`,
	} {
		d, err := ParseDoc([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		want := *d
		if err := oracleRehash(&want); err != nil {
			t.Fatal(err)
		}
		d.Rehash()
		if d.TreeHash != want.TreeHash || d.PipelineHash != want.PipelineHash {
			t.Errorf("Rehash %s/%s, oracle %s/%s", d.TreeHash, d.PipelineHash, want.TreeHash, want.PipelineHash)
		}
		canon, _ := oracleCanonicalJSON(d.Trace, d.Spans)
		if got := d.CanonicalJSON(); string(got) != string(canon) {
			t.Errorf("CanonicalJSON:\n got %s\nwant %s", got, canon)
		}
	}
}

// FuzzTraceRender holds Render to the reflection oracle over fuzzed span
// names, attr keys and values, request metadata and an optional cluster
// span: both produce the same bytes.
func FuzzTraceRender(f *testing.F) {
	f.Add("state Idle", "power_w", "<&>é ", 1e-7, int64(math.MaxInt64), true, "evaluate|k", byte(1))
	f.Add("", "", "\x00\xff", 1e21, int64(math.MinInt64), false, "", byte(0))
	f.Add("a/b", "k", "plain", math.Copysign(0, -1), int64(0), false, "\"q\"", byte(2))
	f.Add("run", "nan", "x", math.NaN(), int64(-1), true, "k", byte(3))
	f.Add("run", "inf", "x", math.Inf(-1), int64(1), true, "k", byte(0))
	f.Add("sub", "s", " ", 5e-324, int64(42), false, "k", byte(1))
	f.Add("edge", "e", "y", 1e-6, int64(7), true, "k", byte(0))
	f.Add("edge", "e", "y", 999999999999999999999.0, int64(7), true, "k", byte(0))
	// A path at the hash buffer's limit, strings that outgrow the arena's
	// doubling, and keys and values that need escaping.
	f.Add(strings.Repeat("n", derivBuf-len(ID{})-len("POST /v1/evaluate/")), "k", "v", 1.5, int64(1), true, "k", byte(1))
	f.Add("run", strings.Repeat("k", 300), strings.Repeat("v", 600), 2.5, int64(65537), false, "k", byte(7))
	f.Add("ü<>", "é\t<>&", "\x01\x7f\xffü", -0.5, int64(-300), true, "é", byte(5))
	f.Fuzz(func(t *testing.T, name, key, sval string, fval float64, ival int64, bval bool, reqKey string, shape byte) {
		tr := New(DeriveID(reqKey), "POST /v1/evaluate", "serve")
		if shape&2 != 0 {
			tr.SetOrigin(sval)
		}
		root := tr.Root().Str(key, sval)
		sp := root.Child(name).Float(key, fval).Int(key+"i", int(ival)).Bool(key+"b", bval).Int(sval, int(ival))
		if shape&4 != 0 {
			sp.SetVirtual(fval, float64(ival))
		}
		sp.Child(sval).Float("f", -fval).End()
		if shape&1 != 0 {
			root.ChildCat(name, CatCluster).Str("owner", key).End()
		}
		root.Child(key)
		endAll(tr)
		checkRender(t, tr, Meta{Key: reqKey, Status: int(ival % 600), Reason: key, Flight: sval})
	})
}

// oracleDeriveSpanID and friends are the identity functions as they were
// before they moved onto the stack.
func oracleDeriveSpanID(trace ID, path string) SpanID {
	h := sha256.New()
	h.Write(trace[:])
	h.Write([]byte(path))
	var id SpanID
	copy(id[:], h.Sum(nil)[:len(id)])
	return id
}

func oracleDeriveID(key string) ID {
	h := sha256.New()
	h.Write([]byte("powerbench-trace-v1|" + key))
	var id ID
	copy(id[:], h.Sum(nil)[:len(id)])
	return id
}

func oracleFormat(trace ID, span SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + hex.EncodeToString(trace[:]) + "-" + hex.EncodeToString(span[:]) + "-" + flags
}

// Identity derivation is pinned to its heap form across key and path
// lengths on both sides of the stack buffer.
func TestIdentityMatchesOracle(t *testing.T) {
	path := strings.Repeat("state Idle/sim job 12/é", 50)
	for n := 0; n <= 1000; n++ {
		key := path[:n]
		id := DeriveID(key)
		if want := oracleDeriveID(key); id != want {
			t.Fatalf("DeriveID(len %d) = %s, want %s", n, id, want)
		}
		sid := DeriveSpanID(id, key)
		if want := oracleDeriveSpanID(id, key); sid != want {
			t.Fatalf("DeriveSpanID(len %d) = %s, want %s", n, sid, want)
		}
		if got, want := id.String(), hex.EncodeToString(id[:]); got != want {
			t.Fatalf("ID.String = %s, want %s", got, want)
		}
		if got, want := sid.String(), hex.EncodeToString(sid[:]); got != want {
			t.Fatalf("SpanID.String = %s, want %s", got, want)
		}
		for _, sampled := range []bool{false, true} {
			if got, want := Format(id, sid, sampled), oracleFormat(id, sid, sampled); got != want {
				t.Fatalf("Format = %s, want %s", got, want)
			}
		}
	}
	tr := New(DeriveID("k"), "request", "serve")
	c := tr.Root().Child("cache")
	if got, want := FormatRef(c.TraceID(), c.ID()), "trace:"+hex.EncodeToString(tr.id[:])+"/"+hex.EncodeToString(c.id[:]); got != want {
		t.Fatalf("FormatRef of a span = %s, want %s", got, want)
	}
	if got, want := FormatRef(tr.ID(), SpanID{}), "trace:"+hex.EncodeToString(tr.id[:]); got != want {
		t.Fatalf("FormatRef of a trace = %s, want %s", got, want)
	}
	var nilSpan *Span
	if FormatRef(nilSpan.TraceID(), nilSpan.ID()) != "" {
		t.Fatal("nil span has a ref")
	}
}

func TestIdentityAllocs(t *testing.T) {
	id := DeriveID("k")
	path := strings.Repeat("p", derivBuf-len(id)-1)
	var sink SpanID
	if n := testing.AllocsPerRun(100, func() { sink = DeriveSpanID(id, path) }); n != 0 {
		t.Errorf("DeriveSpanID under the buffer size: %.0f allocs, want 0", n)
	}
	var ids ID
	key := strings.Repeat("k", derivBuf-len("powerbench-trace-v1|"))
	if n := testing.AllocsPerRun(100, func() { ids = DeriveID(key) }); n != 0 {
		t.Errorf("DeriveID under the buffer size: %.0f allocs, want 0", n)
	}
	var s string
	for name, fn := range map[string]func(){
		"ID.String":     func() { s = id.String() },
		"SpanID.String": func() { s = sink.String() },
		"Format":        func() { s = Format(ids, sink, true) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 1 {
			t.Errorf("%s: %.0f allocs, want 1", name, n)
		}
	}
	_ = s
}

// A span written concurrently with a render cannot split the hash from the
// body: both come from one locked read of each span.
func TestRenderDuringWrites(t *testing.T) {
	tr := New(DeriveID("race"), "request", "serve")
	ctx := ContextWith(context.Background(), tr.Root())
	sp := FromContext(ctx).Child("busy")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			sp.Int(fmt.Sprint("k", i%7), i)
		}
		sp.End()
	}()
	for i := 0; i < 20; i++ {
		d, err := ParseDoc(tr.Render(Meta{}).Body)
		if err != nil {
			t.Fatal(err)
		}
		tree, pipeline := d.TreeHash, d.PipelineHash
		d.Rehash()
		if d.TreeHash != tree || d.PipelineHash != pipeline {
			t.Fatalf("body and hashes disagree: stored %s/%s, body rehashes to %s/%s", tree, pipeline, d.TreeHash, d.PipelineHash)
		}
	}
	<-done
}
