package tracectx

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestDeriveIDStable(t *testing.T) {
	a := DeriveID("evaluate|abc")
	b := DeriveID("evaluate|abc")
	if a != b {
		t.Fatalf("DeriveID not stable: %s vs %s", a, b)
	}
	if a == DeriveID("evaluate|abd") {
		t.Fatalf("distinct keys collided")
	}
	if a.IsZero() {
		t.Fatalf("derived id is zero")
	}
	if len(a.String()) != 32 {
		t.Fatalf("trace id hex length = %d, want 32", len(a.String()))
	}
}

func TestSpanIDsIdentityDerived(t *testing.T) {
	id := DeriveID("k")
	t1 := New(id, "request", "serve")
	t2 := New(id, "request", "serve")
	// Create the same children in different orders; ids must match because
	// they derive from (trace id, path), not creation order.
	a1 := t1.Root().Child("alpha")
	b1 := t1.Root().Child("beta")
	b2 := t2.Root().Child("beta")
	a2 := t2.Root().Child("alpha")
	if a1.ID() != a2.ID() || b1.ID() != b2.ID() {
		t.Fatalf("span ids depend on creation order")
	}
	if a1.ID() == b1.ID() {
		t.Fatalf("sibling span ids collided")
	}
	if t1.Root().ID() != DeriveSpanID(id, "request") {
		t.Fatalf("root span id not derivable from (trace id, root name)")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	if !tr.ID().IsZero() {
		t.Fatalf("nil trace id not zero")
	}
	tr.SetOrigin("x")
	sp := tr.Root()
	if sp != nil {
		t.Fatalf("nil trace root != nil")
	}
	// All span ops on nil must be no-ops.
	sp.Int("k", 1).SetVirtual(0, 1).Child("c").End()
	sp.End()
	if !sp.ID().IsZero() {
		t.Fatalf("nil span id not zero")
	}
	ctx := ContextWith(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatalf("nil span stored in context")
	}
	if FromContext(nil) != nil {
		t.Fatalf("FromContext(nil ctx) != nil")
	}
	if tr.Export() != nil {
		t.Fatalf("nil trace exported a doc")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New(DeriveID("k"), "request", "serve")
	ctx := ContextWith(context.Background(), tr.Root())
	got := FromContext(ctx)
	if got != tr.Root() {
		t.Fatalf("FromContext returned %v, want root", got)
	}
	c := got.Child("inner")
	ctx2 := ContextWith(ctx, c)
	if FromContext(ctx2) != c {
		t.Fatalf("inner span not current")
	}
	if FromContext(ctx) != tr.Root() {
		t.Fatalf("outer ctx mutated")
	}
}

func TestW3CRoundTrip(t *testing.T) {
	id := DeriveID("k")
	sid := DeriveSpanID(id, "request")
	h := Format(id, sid, true)
	p, err := Parse(h)
	if err != nil {
		t.Fatalf("Parse(%q): %v", h, err)
	}
	if p.Trace != id || p.Span != sid || !p.Sampled {
		t.Fatalf("round trip mismatch: %+v", p)
	}
	if h2 := Format(p.Trace, p.Span, p.Sampled); h2 != h {
		t.Fatalf("re-format mismatch: %q vs %q", h2, h)
	}
	if p2, err := Parse(Format(id, sid, false)); err != nil || p2.Sampled {
		t.Fatalf("unsampled round trip: %+v, %v", p2, err)
	}
}

func TestW3CParseRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("1", 16) + "-01", // zero trace id
		"00-" + strings.Repeat("1", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero parent id
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("1", 16) + "-01", // non-hex
		"00-" + strings.Repeat("1", 31) + "-" + strings.Repeat("1", 16) + "-01", // short trace id
		"ff-" + strings.Repeat("1", 32) + "-" + strings.Repeat("1", 16) + "-01", // forbidden version
		"00-" + strings.Repeat("1", 32) + "-" + strings.Repeat("1", 16) + "-01-extra",
	}
	for _, v := range bad {
		if _, err := Parse(v); err == nil {
			t.Errorf("Parse(%q) accepted", v)
		}
	}
	// Future versions may carry extra fields.
	if _, err := Parse("01-" + strings.Repeat("1", 32) + "-" + strings.Repeat("1", 16) + "-01-extra"); err != nil {
		t.Errorf("future version with extra field rejected: %v", err)
	}
}

// buildSample constructs a small two-level trace; childFirst flips creation
// order to prove the export is order-independent.
func buildSample(childFirst bool) *Doc {
	tr := New(DeriveID("sample"), "request", "serve")
	root := tr.Root()
	root.Str("route", "/v1/evaluate")
	mk := func(name string, attr int) {
		c := root.Child(name)
		c.Int("i", attr)
		c.Child("leaf").End()
		c.End()
	}
	if childFirst {
		mk("beta", 2)
		mk("alpha", 1)
	} else {
		mk("alpha", 1)
		mk("beta", 2)
	}
	root.End()
	return tr.Export()
}

func TestExportCanonicalAcrossCreationOrder(t *testing.T) {
	a := buildSample(false)
	b := buildSample(true)
	if a.TreeHash != b.TreeHash {
		t.Fatalf("tree hash depends on creation order:\n%s\n%s", a.TreeHash, b.TreeHash)
	}
	if !bytes.Equal(a.CanonicalJSON(), b.CanonicalJSON()) {
		t.Fatalf("canonical JSON depends on creation order:\n%s\n%s", a.CanonicalJSON(), b.CanonicalJSON())
	}
	// Path order in the exported span list.
	for i := 1; i < len(a.Spans); i++ {
		if a.Spans[i-1].Path >= a.Spans[i].Path {
			t.Fatalf("spans not path-sorted: %q then %q", a.Spans[i-1].Path, a.Spans[i].Path)
		}
	}
	if len(a.Spans) != 5 {
		t.Fatalf("exported %d spans, want 5", len(a.Spans))
	}
}

func TestChildCatAndPipelineHash(t *testing.T) {
	build := func(withPeer bool) *Doc {
		tr := New(DeriveID("k"), "request", "serve")
		root := tr.Root()
		root.Str("route", "/v1/evaluate")
		c := root.Child("compute")
		c.Str("state", "miss")
		c.End()
		if withPeer {
			p := root.ChildCat("peer", CatCluster)
			p.Str("owner", "s1")
			p.End()
		}
		root.End()
		return tr.Export()
	}
	plain := build(false)
	peered := build(true)
	if plain.PipelineHash == "" || peered.PipelineHash == "" {
		t.Fatalf("pipeline hash not set: %q / %q", plain.PipelineHash, peered.PipelineHash)
	}
	if plain.PipelineHash != plain.TreeHash {
		t.Errorf("without cluster spans PipelineHash %s != TreeHash %s", plain.PipelineHash, plain.TreeHash)
	}
	if peered.TreeHash == plain.TreeHash {
		t.Errorf("peer span did not change the tree hash")
	}
	if peered.PipelineHash != plain.PipelineHash {
		t.Errorf("pipeline hash differs with a cluster span present: %s vs %s", peered.PipelineHash, plain.PipelineHash)
	}
	var peerSpan *SpanDoc
	for i := range peered.Spans {
		if peered.Spans[i].Name == "peer" {
			peerSpan = &peered.Spans[i]
		}
	}
	if peerSpan == nil || peerSpan.Cat != CatCluster {
		t.Fatalf("peer span cat = %+v, want %q", peerSpan, CatCluster)
	}

	// Rehash recomputes both hashes after span surgery.
	doc := build(true)
	kept := doc.Spans[:0]
	for _, s := range doc.Spans {
		if s.Cat != CatCluster {
			kept = append(kept, s)
		}
	}
	doc.Spans = kept
	doc.Rehash()
	if doc.TreeHash != plain.TreeHash || doc.PipelineHash != plain.PipelineHash {
		t.Errorf("Rehash after dropping cluster spans: tree %s pipeline %s, want %s", doc.TreeHash, doc.PipelineHash, plain.TreeHash)
	}
	var nilDoc *Doc
	nilDoc.Rehash() // must not panic
}

func TestParseDoc(t *testing.T) {
	d := buildSample(false)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := ParseDoc(b)
	if err != nil {
		t.Fatalf("ParseDoc: %v", err)
	}
	if got.Trace != d.Trace || got.TreeHash != d.TreeHash || len(got.Spans) != len(d.Spans) {
		t.Fatalf("round trip mismatch")
	}
	if _, err := ParseDoc([]byte(`{"schema":"other"}`)); err == nil {
		t.Fatalf("wrong schema accepted")
	}
	if _, err := ParseDoc([]byte(`{`)); err == nil {
		t.Fatalf("bad JSON accepted")
	}
}

func TestRenderers(t *testing.T) {
	d := buildSample(false)
	d.Status = 200
	d.Reason = "cache-miss"
	d.Flight = strings.Repeat("f", 64)

	var tree bytes.Buffer
	if err := WriteTree(&tree, d); err != nil {
		t.Fatalf("WriteTree: %v", err)
	}
	out := tree.String()
	for _, want := range []string{"request", "alpha", "beta", "leaf", "kept: cache-miss", "flight " + d.Flight, "i=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}

	cp := CriticalPath(d)
	if len(cp) == 0 || cp[0].Path != "request" {
		t.Fatalf("critical path does not start at root: %+v", cp)
	}
	var top bytes.Buffer
	if err := WriteTop(&top, d); err != nil {
		t.Fatalf("WriteTop: %v", err)
	}
	if !strings.Contains(top.String(), "critical path") || !strings.Contains(top.String(), "request") {
		t.Errorf("top output: %s", top.String())
	}

	var chrome bytes.Buffer
	if err := WriteChrome(&chrome, d); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !strings.Contains(chrome.String(), `"traceEvents"`) || !strings.Contains(chrome.String(), `"ph":"X"`) {
		t.Errorf("chrome output: %s", chrome.String())
	}
}

func TestWriteChromeLanes(t *testing.T) {
	// Two children with overlapping wall intervals must land in different
	// lanes; a third that starts after both fit back into an existing lane.
	d := &Doc{
		Schema: Schema,
		Trace:  DeriveID("lanes").String(),
		Spans: []SpanDoc{
			{ID: "r", Path: "root", Name: "root", StartUS: 0, DurUS: 100},
			{ID: "a", Parent: "r", Path: "root/a", Name: "a", StartUS: 0, DurUS: 50},
			{ID: "b", Parent: "r", Path: "root/b", Name: "b", StartUS: 10, DurUS: 50},
			{ID: "c", Parent: "r", Path: "root/c", Name: "c", StartUS: 70, DurUS: 10},
		},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, d); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("parsing chrome output: %v", err)
	}
	tids := map[string]int{}
	for _, e := range parsed.TraceEvents {
		tids[e.Name] = e.TID
	}
	if tids["a"] == tids["b"] {
		t.Fatalf("overlapping siblings share lane %d", tids["a"])
	}
	if tids["c"] != tids["a"] && tids["c"] != tids["root"] {
		t.Fatalf("non-overlapping child opened a fresh lane: %v", tids)
	}
}
