package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"powerbench/internal/tracectx"
)

// sampleTraceDoc builds a small real trace and returns its exported JSON.
func sampleTraceDoc(t *testing.T) []byte {
	t.Helper()
	tr := tracectx.New(tracectx.DeriveID("tracecmd-test"), "request", "serve")
	root := tr.Root()
	c := root.Child("compute")
	c.Child("sim job 0").Str("server", "X").End()
	c.End()
	root.End()
	doc := tr.Export()
	doc.Status = 200
	doc.Reason = "cache-miss"
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTraceCmdShowTopExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, sampleTraceDoc(t), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if rc := traceCmd([]string{"show", path}, &stdout, &stderr); rc != 0 {
		t.Fatalf("show rc=%d: %s", rc, stderr.String())
	}
	for _, want := range []string{"request", "compute", "sim job 0", "kept: cache-miss"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("show output missing %q:\n%s", want, stdout.String())
		}
	}

	stdout.Reset()
	if rc := traceCmd([]string{"top", path}, &stdout, &stderr); rc != 0 {
		t.Fatalf("top rc=%d: %s", rc, stderr.String())
	}
	if !strings.Contains(stdout.String(), "critical path of trace") {
		t.Errorf("top output missing critical path:\n%s", stdout.String())
	}

	stdout.Reset()
	if rc := traceCmd([]string{"export", path}, &stdout, &stderr); rc != 0 {
		t.Fatalf("export rc=%d: %s", rc, stderr.String())
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &chrome); err != nil {
		t.Fatalf("export output is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) != 3 {
		t.Errorf("chrome export has %d events, want 3", len(chrome.TraceEvents))
	}
}

func TestTraceCmdFetchesURL(t *testing.T) {
	doc := sampleTraceDoc(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/traces/abc" {
			http.NotFound(w, req)
			return
		}
		w.Write(doc)
	}))
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	if rc := traceCmd([]string{"show", srv.URL + "/v1/traces/abc"}, &stdout, &stderr); rc != 0 {
		t.Fatalf("rc=%d: %s", rc, stderr.String())
	}
	if !strings.Contains(stdout.String(), "sim job 0") {
		t.Errorf("fetched trace not rendered:\n%s", stdout.String())
	}
	// A 404 surfaces the body's explanation, not a parse error.
	stderr.Reset()
	if rc := traceCmd([]string{"show", srv.URL + "/v1/traces/missing"}, &stdout, &stderr); rc != 1 {
		t.Fatalf("rc=%d for missing trace, want 1", rc)
	}
	if !strings.Contains(stderr.String(), "404") {
		t.Errorf("missing-trace error does not mention status: %s", stderr.String())
	}
}

func TestTraceCmdUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if rc := traceCmd(nil, &stdout, &stderr); rc != 2 {
		t.Errorf("no args rc=%d, want 2", rc)
	}
	if rc := traceCmd([]string{"frobnicate", "x"}, &stdout, &stderr); rc != 2 {
		t.Errorf("unknown command rc=%d, want 2", rc)
	}
	if rc := traceCmd([]string{"show", filepath.Join(t.TempDir(), "absent.json")}, &stdout, &stderr); rc != 1 {
		t.Errorf("missing file rc=%d, want 1", rc)
	}
}
