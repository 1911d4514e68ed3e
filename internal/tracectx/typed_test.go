package tracectx

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// settle ends every span at a fixed instant, so traces built apart render
// the same wall times.
func settle(tr *Trace) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range uint32(tr.n) {
		s := tr.spanAt(i)
		s.startNS, s.endNS, s.ended = 1000, 3000, true
	}
}

// attrOp is one attr write: a setter (kind%5: Str, Int, Float, Bool or
// SetVirtual) and its key.
type attrOp struct {
	kind byte
	key  string
}

// applyTyped makes the writes through the typed setters and SetVirtual.
func applyTyped(s *Span, ops []attrOp, str string, f float64, i int64, b bool) {
	for _, op := range ops {
		switch op.kind % 5 {
		case 0:
			s.Str(op.key, str)
		case 1:
			s.Int(op.key, int(i))
		case 2:
			s.Float(op.key, f)
		case 3:
			s.Bool(op.key, b)
		case 4:
			s.SetVirtual(f, -f)
		}
	}
}

// expectAttrs is what the same writes leave in a document's attrs: the
// last write to a key wins, SetVirtual writes sim_t0 and sim_t1, and a
// non-finite float is the string strconv formats it as.
func expectAttrs(ops []attrOp, str string, f float64, i int64, b bool) map[string]any {
	fv := func(f float64) any {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return strconv.FormatFloat(f, 'g', -1, 64)
		}
		return f
	}
	attrs := make(map[string]any)
	for _, op := range ops {
		switch op.kind % 5 {
		case 0:
			attrs[op.key] = str
		case 1:
			attrs[op.key] = int(i)
		case 2:
			attrs[op.key] = fv(f)
		case 3:
			attrs[op.key] = b
		case 4:
			attrs["sim_t0"], attrs["sim_t1"] = fv(f), fv(-f)
		}
	}
	if len(attrs) == 0 {
		return nil
	}
	return attrs
}

// expectSpan is one span of the expected document: its parent's path
// ("" for the root), name, category and attrs.
type expectSpan struct {
	parent, name, cat string
	attrs             map[string]any
}

// path is the span's /-joined path.
func (e expectSpan) path() string {
	if e.parent == "" {
		return e.name
	}
	return e.parent + "/" + e.name
}

// scriptedTrace records a fixed tree through the typed setters,
// SetVirtual, ChildJoin, ChildIndex and ChildCat, and builds the document
// it must render from the same script without reading the trace: spans
// sorted by path, ids derived from their paths, every span settled at
// 1 µs for 2 µs. It returns a nil doc when two sibling names coincide,
// which the span model leaves to its callers to avoid.
func scriptedTrace(script []byte, key, prefix, name, str string, f float64, i int64, b bool) (*Trace, *Doc) {
	keys := []string{key, key + "2", "sim_t0", "sim_t1"}
	var ops []attrOp
	for n, c := range script {
		if n == 32 {
			break
		}
		ops = append(ops, attrOp{kind: c & 7, key: keys[c>>3%4]})
	}
	const rootName = "POST /v1/evaluate"
	tr := New(DeriveID(key), rootName, "serve")
	applyTyped(tr.Root(), ops, str, f, i, b)
	run := tr.Root().ChildJoin(prefix, name)
	applyTyped(run, ops, str, f, i, b)
	job := run.ChildIndex(prefix, " job ", int(i))
	applyTyped(job.ChildIndex("attempt ", "", 1), ops[:len(ops)/2], str, -f, -i, !b)
	job.ChildCat(name, CatCluster).Str("owner", str)
	settle(tr)

	if name == "attempt 1" {
		return tr, nil
	}
	runPath := rootName + "/" + prefix + name
	jobName := prefix + " job " + strconv.Itoa(int(i))
	jobPath := runPath + "/" + jobName
	want := []expectSpan{
		{"", rootName, "serve", expectAttrs(ops, str, f, i, b)},
		{rootName, prefix + name, "serve", expectAttrs(ops, str, f, i, b)},
		{runPath, jobName, "serve", nil},
		{jobPath, "attempt 1", "serve", expectAttrs(ops[:len(ops)/2], str, -f, -i, !b)},
		{jobPath, name, CatCluster, map[string]any{"owner": str}},
	}
	sort.Slice(want, func(x, y int) bool { return want[x].path() < want[y].path() })
	doc := &Doc{Schema: Schema, Trace: tr.ID().String(), DurationUS: 2}
	for _, w := range want {
		d := SpanDoc{
			ID:      DeriveSpanID(tr.ID(), w.path()).String(),
			Path:    w.path(),
			Name:    w.name,
			Cat:     w.cat,
			StartUS: 1,
			DurUS:   2,
			Attrs:   w.attrs,
		}
		if w.parent != "" {
			d.Parent = DeriveSpanID(tr.ID(), w.parent).String()
		}
		doc.Spans = append(doc.Spans, d)
	}
	return tr, doc
}

// FuzzSpanAttrs holds spans written through Str, Int, Float, Bool and
// SetVirtual, repeated keys and the virtual-clock keys included, to the
// document built from the same script: Render's body is the encoding/json
// rendering of that document with the request metadata, and Render and
// Export carry the tree and pipeline hashes the encoding/json oracle
// computes over it.
func FuzzSpanAttrs(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4}, "k", "run ", "ep.C.1", "<&>é\t\"\\\x00\xff ", 1e-7, int64(math.MaxInt64), true)
	f.Add([]byte{2, 10, 2, 4, 18, 26, 12}, "watts", "state ", "", "x", math.Copysign(0, -1), int64(math.MinInt64), false)
	f.Add([]byte{4, 26, 18, 4, 1}, "sim_t0", "", "a/b", "", 5e-324, int64(0), true)
	f.Add([]byte{2, 2, 2, 10}, "e", "sim", "", "  ", 1e21, int64(-1), false)
	f.Add([]byte{2, 4}, "f", "x", "y", "y", 999999999999999999999.0, int64(7), true)
	f.Add([]byte{2, 4, 20}, "nan", "x", "y", "NaN", math.NaN(), int64(3), true)
	f.Add([]byte{2, 4}, "inf", "x", "y", "", math.Inf(-1), int64(3), true)
	// A key rewritten by each setter in turn, SetVirtual after a sim_t0
	// attr and a sim_t1 attr after SetVirtual, strings that outgrow the
	// arena's doubling, and keys and values that need escaping.
	f.Add([]byte{0, 1, 2, 3, 0, 16, 4, 24}, "k", "run ", "x", "s", 2.5, int64(9), true)
	f.Add([]byte{0, 8, 1, 9, 16, 4}, strings.Repeat("k", 300), "", strings.Repeat("n", 200), strings.Repeat("s", 700), 1e-7, int64(1), false)
	f.Add([]byte{0, 8, 3}, "é\t<>&", "ü", "\x01", "\x7f\xff<&>", -0.5, int64(-2), true)
	f.Fuzz(func(t *testing.T, script []byte, key, prefix, name, str string, fv float64, iv int64, bv bool) {
		tr, want := scriptedTrace(script, key, prefix, name, str, fv, iv, bv)
		if want == nil {
			return
		}
		if err := oracleRehash(want); err != nil {
			t.Fatalf("oracle: %v", err)
		}
		m := Meta{Key: key, Status: 200, Reason: "sampled", Flight: str}
		want.Key, want.Status, want.Reason, want.Flight = m.Key, m.Status, m.Reason, m.Flight
		body, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if got := tr.Render(m).Body; string(got) != string(body)+"\n" {
			t.Fatalf("Render differs from the expected document:\n got %s\nwant %s", got, body)
		}
		exp := tr.Export()
		if exp.TreeHash != want.TreeHash || exp.PipelineHash != want.PipelineHash {
			t.Fatalf("Export hashes %s/%s, expected %s/%s", exp.TreeHash, exp.PipelineHash, want.TreeHash, want.PipelineHash)
		}
		canon, err := oracleCanonicalJSON(want.Trace, want.Spans)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if got := exp.CanonicalJSON(); string(got) != string(canon) {
			t.Fatalf("CanonicalJSON differs:\n got %s\nwant %s", got, canon)
		}
	})
}

// A non-finite float recorded through Float or SetVirtual renders as a
// string, so every view of a pipeline-recorded trace succeeds.
func TestTypedNonFiniteRenders(t *testing.T) {
	tr := New(DeriveID("nonfinite"), "request", "serve")
	root := tr.Root().Float("nan", math.NaN()).Float("pinf", math.Inf(1)).Float("ninf", math.Inf(-1))
	root.Child("run Idle").SetVirtual(math.NaN(), math.Inf(1)).End()
	root.End()

	doc := tr.Export()
	want := map[string]any{"nan": "NaN", "pinf": "+Inf", "ninf": "-Inf"}
	for k, v := range want {
		if doc.Spans[0].Attrs[k] != v {
			t.Errorf("exported %s = %v, want %q", k, doc.Spans[0].Attrs[k], v)
		}
	}
	if a := doc.Spans[1].Attrs; a["sim_t0"] != "NaN" || a["sim_t1"] != "+Inf" {
		t.Errorf("exported virtual clock %v, want NaN and +Inf strings", a)
	}
	parsed, err := ParseDoc(tr.Render(Meta{Key: "k"}).Body)
	if err != nil {
		t.Fatal(err)
	}
	tree, pipeline := parsed.TreeHash, parsed.PipelineHash
	parsed.Rehash()
	if parsed.TreeHash != tree || parsed.PipelineHash != pipeline || doc.TreeHash != tree {
		t.Fatalf("hashes disagree: stored %s/%s, rehashed %s/%s, exported %s", tree, pipeline, parsed.TreeHash, parsed.PipelineHash, doc.TreeHash)
	}
	if !strings.Contains(string(doc.CanonicalJSON()), `"nan":"NaN"`) {
		t.Errorf("CanonicalJSON: %s", doc.CanonicalJSON())
	}
	if _, err := json.Marshal(doc); err != nil {
		t.Errorf("exported doc does not marshal: %v", err)
	}
	checkRender(t, tr, Meta{})
}

// A key set again replaces its value, whatever setter wrote it, and the
// virtual-clock keys follow the last of SetVirtual and a setter.
func TestAttrReplace(t *testing.T) {
	tr := New(DeriveID("replace"), "request", "serve")
	sp := tr.Root().Child("s")
	sp.Int("a", 1).Str("b", "x").Str("a", "over").Float("c", 2).Bool("d", true).Int("b", 7)
	sp.SetVirtual(1, 2).Str("sim_t0", "over").SetVirtual(3, 4).Float("sim_t1", 9)
	sp.Int("sim_t0", 5)
	settle(tr)
	got := tr.Export().Spans[1].Attrs
	want := map[string]any{"a": "over", "b": 7, "c": 2.0, "d": true, "sim_t0": 5, "sim_t1": 9.0}
	if len(got) != len(want) {
		t.Fatalf("attrs %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("attr %s = %#v, want %#v", k, got[k], v)
		}
	}
	checkRender(t, tr, Meta{})
}

// Opening a span allocates nothing per span once chunks are amortized, and
// the typed setters and SetVirtual allocate nothing at all.
func TestSpanRecordAllocs(t *testing.T) {
	id := DeriveID("allocs")
	names := make([]string, 64)
	for i := range names {
		names[i] = "child " + strconv.Itoa(i)
	}
	base := testing.AllocsPerRun(50, func() { New(id, "POST /v1/evaluate", "serve") })
	for name, open := range map[string]func(*Span, int){
		"Child":      func(s *Span, i int) { s.Child(names[i]) },
		"ChildJoin":  func(s *Span, i int) { s.ChildJoin("child ", names[i][6:]) },
		"ChildIndex": func(s *Span, i int) { s.ChildIndex("child", " ", i) },
	} {
		allocs := testing.AllocsPerRun(50, func() {
			root := New(id, "POST /v1/evaluate", "serve").Root()
			for i := range names {
				open(root, i)
			}
		})
		per := (allocs - base) / float64(len(names))
		t.Logf("%s: %.3f allocs per span", name, per)
		if per > 0.25 {
			t.Errorf("%s: %.3f allocs per span over %d spans, want <= 0.25", name, per, len(names))
		}
	}

	sp := New(id, "request", "serve").Root().Child("run Idle")
	for name, set := range map[string]func(){
		"Str":        func() { sp.Str("result", "hit") },
		"Int":        func() { sp.Int("samples", 1<<40) },
		"Float":      func() { sp.Float("watts", 123.456) },
		"Bool":       func() { sp.Bool("cancelled", true) },
		"SetVirtual": func() { sp.SetVirtual(1.5, 2.5e9) },
	} {
		if n := testing.AllocsPerRun(100, set); n != 0 {
			t.Errorf("%s: %.0f allocs, want 0", name, n)
		}
	}
	var nilSpan *Span
	if n := testing.AllocsPerRun(100, func() {
		nilSpan.ChildJoin("run ", "ep.C.1").Float("watts", 1).Int("samples", 1<<40)
		nilSpan.ChildIndex("sim", " job ", 1<<20).Str("error", "x")
	}); n != 0 {
		t.Errorf("nil span: %.0f allocs, want 0", n)
	}
}

// Rendering a trace for the store costs a fixed handful of allocations
// (the span snapshot, its sort, the body and the id string), the same for
// a hundreds-of-spans compute trace as for a cache hit's two spans.
func TestRenderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	build := func(spans int) *Trace {
		tr := New(DeriveID("render allocs"), "/v1/compare", "serve")
		root := tr.Root()
		root.Child("cache").Str("result", "miss").End()
		for i := 2; i < spans; i++ {
			root.ChildIndex("sim job", " ", i).Int("attempt", i).Float("watts", float64(i)+0.5).End()
		}
		root.End()
		return tr
	}
	var counts []float64
	for _, spans := range []int{2, 300} {
		tr := build(spans)
		m := Meta{Key: "compare|abc", Status: 200, Reason: "cache-miss", Flight: "f"}
		allocs := testing.AllocsPerRun(50, func() { tr.Render(m) })
		t.Logf("%d spans: %.1f allocs per render", spans, allocs)
		if allocs > 8 {
			t.Errorf("%d spans: %.1f allocs per render, want <= 8", spans, allocs)
		}
		counts = append(counts, allocs)
	}
	if counts[1] > counts[0]+1 {
		t.Errorf("rendering grows with span count: %.1f allocs for 300 spans, %.1f for 2", counts[1], counts[0])
	}
}
