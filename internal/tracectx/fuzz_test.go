package tracectx

import (
	"context"
	"encoding/json"
	"io"
	"testing"
)

// FuzzTraceparent drives Parse, which runs on every inbound request's
// traceparent header. It must never panic, and every value it accepts must
// survive a Format round trip unchanged.
func FuzzTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03 ",
		"", "-", "00---", "00-xyz-abc-01",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, value string) {
		p, err := Parse(value)
		if err != nil {
			return
		}
		formatted := Format(p.Trace, p.Span, p.Sampled)
		back, err := Parse(formatted)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its Format %q fails to parse: %v", value, formatted, err)
		}
		if back != p {
			t.Fatalf("Parse(%q) = %+v, but Parse(Format) = %+v", value, p, back)
		}
	})
}

// FuzzTraceDoc drives ParseDoc, which decodes trace documents that peers
// supply to the fleet layer. Whatever it accepts must render through every
// view without panicking, and Rehash must be idempotent.
func FuzzTraceDoc(f *testing.F) {
	tr := New(DeriveID("fuzz"), "request", "serve")
	ctx := ContextWith(context.Background(), tr.Root())
	job := FromContext(ctx).Child("sim job 0").Int("index", 0)
	job.Child("run Idle").SetVirtual(0, 120).End()
	job.End()
	tr.Root().ChildCat("peer fetch", CatCluster).Str("peer", "s1").End()
	valid, err := json.Marshal(tr.Export())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(valid),
		`{"schema":"powerbench-trace-v1","spans":[]}`,
		`{"schema":"powerbench-trace-v1","spans":[{"id":"a","parent":"a","path":"x"}]}`,
		`{"schema":"powerbench-trace-v1","spans":[{"id":"r","path":"r"},{"id":"a","parent":"b"},{"id":"b","parent":"a"}]}`,
		`{"schema":"powerbench-trace-v1","spans":[{"id":"r"},{"id":"r","parent":"r","dur_us":-5,"attrs":{"k":[1,{"x":null}]}}]}`,
		`{"schema":"other"}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseDoc(data)
		if err != nil {
			return
		}
		if err := WriteTree(io.Discard, d); err != nil {
			t.Fatalf("WriteTree: %v", err)
		}
		if err := WriteTop(io.Discard, d); err != nil {
			t.Fatalf("WriteTop: %v", err)
		}
		// A doc without a root span is an export error, not a panic.
		_ = WriteChrome(io.Discard, d)
		d.CanonicalJSON()
		d.Rehash()
		tree, pipeline := d.TreeHash, d.PipelineHash
		d.Rehash()
		if d.TreeHash != tree || d.PipelineHash != pipeline {
			t.Fatalf("Rehash not idempotent: %s/%s then %s/%s", tree, pipeline, d.TreeHash, d.PipelineHash)
		}
	})
}
