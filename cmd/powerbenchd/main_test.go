package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"powerbench/internal/obs"
)

// syncBuffer is a goroutine-safe writer the daemon logs into while the
// test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (http://[^\s]+)`)

// The daemon lifecycle end to end: boot on a random port, answer healthz,
// evaluate and metrics, then shut down cleanly on context cancellation
// (the signal path) with exit code 0.
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	rc := make(chan int, 1)
	go func() { rc <- run(ctx, []string{"-addr", "127.0.0.1:0"}, &stdout, &stderr) }()

	// Wait for the resolved listen address.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; stdout: %q stderr: %q", stdout.String(), stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	resp, err := http.Post(base+"/v1/evaluate", "application/json",
		strings.NewReader(`{"server":"Xeon-E5462","seed":1}`))
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	evalBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(evalBody), `"Server": "Xeon-E5462"`) {
		t.Fatalf("evaluate: %d %s", resp.StatusCode, evalBody)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "http_requests_total") ||
		!strings.Contains(body, "serve_compute_total") {
		t.Fatalf("metrics: %d (missing service counters)", code)
	}

	// Cancel = SIGTERM path: the daemon must drain and exit 0.
	cancel()
	select {
	case code := <-rc:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down after cancellation")
	}
	if !strings.Contains(stdout.String(), "shut down cleanly") {
		t.Errorf("missing clean-shutdown report in stdout: %q", stdout.String())
	}
}

// A busy port must fail fast with a nonzero exit code, not hang.
func TestDaemonListenFailure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	if rc := run(ctx, []string{"-addr", "256.256.256.256:1"}, &stdout, &stderr); rc != 1 {
		t.Fatalf("exit code %d, want 1", rc)
	}
	if stderr.String() == "" {
		t.Error("listen failure produced no diagnostic")
	}
}

func TestDaemonBadFlags(t *testing.T) {
	// -trace-out is a one-shot tool's flag: daemon traces leave through
	// GET /v1/traces/{id}.
	for _, args := range [][]string{{"-no-such-flag"}, {"-trace-out", "t.json"}} {
		var stdout, stderr syncBuffer
		if rc := run(context.Background(), args, &stdout, &stderr); rc != 2 {
			t.Fatalf("%v: exit code %d, want 2", args, rc)
		}
	}
}

// parsePeers accepts inline id=url lists and @file membership files, and
// rejects malformed entries.
func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("s0,s1=http://h:1,s2=http://h:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 || peers[0].ID != "s0" || peers[0].URL != "" ||
		peers[1].ID != "s1" || peers[1].URL != "http://h:1" {
		t.Fatalf("parsed %+v", peers)
	}

	file := t.TempDir() + "/peers.txt"
	if err := os.WriteFile(file, []byte("# membership\ns0=http://h:1\n\ns1=http://h:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	peers, err = parsePeers("@" + file)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[1].URL != "http://h:2" {
		t.Fatalf("parsed from file: %+v", peers)
	}

	for _, bad := range []string{"", "=http://h:1", "@/does/not/exist", ","} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted a bad value", bad)
		}
	}
}

// The cluster flags validate as a unit: -peers needs -shard-id, the shard
// id must be a listed member, and peers (other than self) need URLs.
func TestBuildClusterValidation(t *testing.T) {
	cases := []struct {
		name, peers, shard string
	}{
		{"peers without shard-id", "s0,s1=http://h:1", ""},
		{"shard-id without peers", "", "s0"},
		{"shard-id not a member", "s0,s1=http://h:1", "s9"},
		{"peer missing url", "s0,s1", "s0"},
	}
	for _, tc := range cases {
		if _, err := buildCluster(tc.peers, tc.shard, 0, 0, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	cl, err := buildCluster("s0,s1=http://h:1", "s0", 0, 0, nil)
	if err != nil || cl == nil || cl.Self() != "s0" || cl.Members() != 2 {
		t.Fatalf("valid config: cl=%v err=%v", cl, err)
	}
	if cl, err := buildCluster("", "", 0, 0, nil); cl != nil || err != nil {
		t.Fatalf("standalone: cl=%v err=%v", cl, err)
	}
}

// A clustered daemon reports its shard identity at boot and exposes the
// cluster block on /healthz.
func TestDaemonClusterBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	rc := make(chan int, 1)
	go func() {
		rc <- run(ctx, []string{"-addr", "127.0.0.1:0",
			"-shard-id", "s0", "-peers", "s0,s1=http://127.0.0.1:1"}, &stdout, &stderr)
	}()
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; stderr: %q", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(stdout.String(), "cluster: shard s0 of 2 member(s)") {
		t.Errorf("boot log missing the cluster report: %q", stdout.String())
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"shard": "s0"`) {
		t.Errorf("healthz missing the cluster block: %s", body)
	}
	cancel()
	select {
	case code := <-rc:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("clustered daemon did not shut down")
	}
}

// The daemon's telemetry carries no obs.Tracer: core records two root
// spans on a tracer per computation and no daemon code reads them, so a
// daemon that kept one would grow for as long as it runs. The registry and
// the logger stay, and a span on the daemon's Obs is the no-op nil span.
func TestDaemonObsHasNoTracer(t *testing.T) {
	var cli obs.CLI
	fs := flag.NewFlagSet("powerbenchd", flag.ContinueOnError)
	cli.Register(fs)
	if err := fs.Parse([]string{"-v"}); err != nil {
		t.Fatal(err)
	}
	o := daemonObs(&cli, io.Discard, io.Discard)
	if o.Tracer != nil {
		t.Fatal("the daemon's Obs has a tracer")
	}
	if o.Metrics == nil || o.Log == nil {
		t.Fatalf("the daemon's Obs lost its registry or logger: %+v", o)
	}
	if sp := o.SpanJoin("evaluate ", "Xeon-E5462", "evaluate"); sp != nil {
		t.Fatal("a span on the daemon's Obs was recorded")
	}
}
