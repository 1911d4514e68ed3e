package fleet

import (
	"reflect"
	"testing"

	"powerbench/internal/tracectx"
)

// ownerDoc builds the owning shard's stored document: root + compute spans.
func ownerDoc() *tracectx.Doc {
	tr := tracectx.New(tracectx.DeriveID("evaluate|abc"), "/v1/evaluate", "serve")
	root := tr.Root()
	root.Str("route", "/v1/evaluate")
	c := root.Child("compute")
	c.Int("jobs", 4)
	c.Child("run-0").End()
	c.End()
	root.End()
	d := tr.Export()
	d.Key = "evaluate|abc"
	d.Status = 201
	d.Reason = "cache-miss"
	d.Flight = "f1"
	return d
}

// requesterDoc builds the non-owning shard's stored document for the same
// trace id: root + peer-fetch span, no compute.
func requesterDoc() *tracectx.Doc {
	tr := tracectx.New(tracectx.DeriveID("evaluate|abc"), "/v1/evaluate", "serve")
	root := tr.Root()
	root.Str("route", "/v1/evaluate")
	p := root.ChildCat("peer", tracectx.CatCluster)
	p.Str("owner", "s1")
	p.End()
	root.End()
	d := tr.Export()
	d.Key = "evaluate|abc"
	d.Status = 200
	d.Reason = "peer"
	d.Flight = "f1"
	return d
}

func TestStitchMergesAcrossShards(t *testing.T) {
	got := Stitch([]SourcedDoc{
		{Shard: "s0", Doc: requesterDoc()},
		{Shard: "s1", Doc: ownerDoc()},
	})
	if got == nil {
		t.Fatal("stitch returned nil")
	}
	paths := make([]string, len(got.Spans))
	for i, s := range got.Spans {
		paths[i] = s.Path
	}
	want := []string{"/v1/evaluate", "/v1/evaluate/compute", "/v1/evaluate/compute/run-0", "/v1/evaluate/peer"}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("stitched paths = %v, want %v", paths, want)
	}
	if got.Reason != "cache-miss+peer" {
		t.Errorf("reason = %q, want union cache-miss+peer", got.Reason)
	}
	if !reflect.DeepEqual(got.Shards, []string{"s0", "s1"}) {
		t.Errorf("shards = %v", got.Shards)
	}
	if got.Key != "evaluate|abc" || got.Flight != "f1" || got.Status != 201 {
		t.Errorf("metadata: key=%q flight=%q status=%d", got.Key, got.Flight, got.Status)
	}
	// The stitched pipeline hash (cluster spans excluded) must equal the
	// owner's — the computation is the same whatever shard served it.
	if got.PipelineHash != ownerDoc().PipelineHash {
		t.Errorf("stitched pipeline hash %s != owner's %s", got.PipelineHash, ownerDoc().PipelineHash)
	}
	// But the tree hash covers the transport spans too.
	if got.TreeHash == ownerDoc().TreeHash {
		t.Errorf("stitched tree hash ignored the peer span")
	}
}

func TestStitchOrderIndependent(t *testing.T) {
	// The same stored documents (wall timings and all), fed in both orders.
	own, req := ownerDoc(), requesterDoc()
	a := Stitch([]SourcedDoc{{Shard: "s0", Doc: req}, {Shard: "s1", Doc: own}})
	b := Stitch([]SourcedDoc{{Shard: "s1", Doc: own}, {Shard: "s0", Doc: req}})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stitch depends on contribution order:\n%+v\n%+v", a, b)
	}
}

func TestStitchIdempotent(t *testing.T) {
	// Stitching the same document from two shards is the document itself
	// (shards annotated): span ids are identity-derived, so the merge keys
	// collide exactly.
	own := ownerDoc()
	a := Stitch([]SourcedDoc{{Shard: "s0", Doc: own}, {Shard: "s1", Doc: own}})
	if len(a.Spans) != len(own.Spans) {
		t.Fatalf("duplicate contribution duplicated spans: %d", len(a.Spans))
	}
	if a.TreeHash != own.TreeHash {
		t.Errorf("tree hash changed on idempotent stitch")
	}
}

func TestStitchAttrFill(t *testing.T) {
	// The richer doc wins span fields; a poorer doc's extra attr keys fill in.
	rich := ownerDoc()
	poor := requesterDoc()
	for i := range poor.Spans {
		if poor.Spans[i].Parent == "" {
			if poor.Spans[i].Attrs == nil {
				poor.Spans[i].Attrs = map[string]any{}
			}
			poor.Spans[i].Attrs["extra"] = "from-poor"
			poor.Spans[i].Attrs["route"] = "conflicting" // must lose to rich
		}
	}
	got := Stitch([]SourcedDoc{{Shard: "s0", Doc: poor}, {Shard: "s1", Doc: rich}})
	var root *tracectx.SpanDoc
	for i := range got.Spans {
		if got.Spans[i].Parent == "" {
			root = &got.Spans[i]
		}
	}
	if root == nil {
		t.Fatal("no root span")
	}
	if root.Attrs["route"] != "/v1/evaluate" {
		t.Errorf("winner's attr overwritten: %v", root.Attrs["route"])
	}
	if root.Attrs["extra"] != "from-poor" {
		t.Errorf("missing attr not filled: %v", root.Attrs)
	}
}

func TestStitchNilAndEmpty(t *testing.T) {
	if Stitch(nil) != nil {
		t.Error("Stitch(nil) != nil")
	}
	if Stitch([]SourcedDoc{{Shard: "s0", Doc: nil}}) != nil {
		t.Error("all-nil contributions stitched a doc")
	}
	single := Stitch([]SourcedDoc{{Shard: "s1", Doc: ownerDoc()}})
	if single == nil || len(single.Spans) != len(ownerDoc().Spans) {
		t.Fatalf("single-doc stitch mangled the doc: %+v", single)
	}
	if !reflect.DeepEqual(single.Shards, []string{"s1"}) {
		t.Errorf("single-doc shards = %v", single.Shards)
	}
}

func TestMergeListings(t *testing.T) {
	l0 := Listing{Bytes: 100, Traces: []TraceSummary{
		{Trace: "aa", Spans: 2, Shard: "s0"},
		{Trace: "bb", Spans: 7, Shard: "s0"},
	}}
	l1 := Listing{Bytes: 50, Traces: []TraceSummary{
		{Trace: "aa", Spans: 5, Shard: "s1"}, // richer copy wins
		{Trace: "cc", Spans: 1, Shard: "s1"},
	}}
	got := MergeListings([]Listing{l0, l1})
	if got.Count != 3 || got.Bytes != 150 {
		t.Fatalf("count=%d bytes=%d", got.Count, got.Bytes)
	}
	if got.Traces[0].Trace != "aa" || got.Traces[0].Shard != "s1" || got.Traces[0].Spans != 5 {
		t.Errorf("dedup kept the poorer copy: %+v", got.Traces[0])
	}
	// Order independence.
	rev := MergeListings([]Listing{l1, l0})
	if !reflect.DeepEqual(got, rev) {
		t.Errorf("merge depends on listing order")
	}
	// Tie on spans goes to the smaller shard id.
	tie := MergeListings([]Listing{
		{Traces: []TraceSummary{{Trace: "dd", Spans: 3, Shard: "s2"}}},
		{Traces: []TraceSummary{{Trace: "dd", Spans: 3, Shard: "s0"}}},
	})
	if tie.Traces[0].Shard != "s0" {
		t.Errorf("span tie broke to %s, want s0", tie.Traces[0].Shard)
	}
}
