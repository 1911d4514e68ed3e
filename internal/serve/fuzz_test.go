package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"powerbench/internal/core"
	"powerbench/internal/jobs"
	"powerbench/internal/obs"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

// peerKeyShape is the documented result-key grammar, written independently
// of validPeerKey's hand-rolled scanner.
var peerKeyShape = regexp.MustCompile(`^(evaluate|green500|compare)\|[0-9a-f+]+$`)

// FuzzPeerKey checks the peer routes' key gate: it never panics, it
// accepts exactly the keys of the documented shape (a known method, '|',
// a non-empty hex-or-'+' suffix, at most 4096 bytes), and every key the
// daemon builds itself — for its three compute routes and for campaign
// points — passes it.
func FuzzPeerKey(f *testing.F) {
	for _, key := range []string{
		"evaluate|abc123", "green500|0123456789abcdef", "compare|abc+def",
		"evaluate|", "evaluate", "delete|abc", "evaluate|ABC",
		"evaluate|../../etc/passwd", "compare|+", "|abc", "", "evaluate||a",
	} {
		f.Add(key, 1.0)
	}
	specs := server.All()
	f.Fuzz(func(t *testing.T, key string, seed float64) {
		want := len(key) <= 4096 && peerKeyShape.MatchString(key)
		if got := validPeerKey(key); got != want {
			t.Fatalf("validPeerKey(%q) = %v, want %v", key, got, want)
		}

		built := []string{
			core.ResultKey("evaluate", seed, "", specs[0]),
			core.ResultKey("green500", seed, "light", specs[0]),
			core.ResultKey("compare", seed, "heavy", specs...),
		}
		if k, unknown := core.BuiltinResultKey("compare", seed, "", allServers...); unknown < 0 {
			built = append(built, k)
		}
		sweep := jobs.SweepSpec{
			Methods:       []string{"evaluate", "green500"},
			Servers:       []string{specs[0].Name},
			FaultProfiles: []string{"", "light"},
			Seeds:         []float64{seed},
		}
		for _, pt := range sweep.Expand() {
			built = append(built, pt.Key)
		}
		for _, k := range built {
			if !validPeerKey(k) {
				t.Fatalf("validPeerKey rejected the daemon-built key %q", k)
			}
		}
	})
}

// FuzzComputeBody drives the three compute routes through Handler() with
// the pipeline stubbed out, from structured bodies and from raw ones. It
// checks that no body panics the handler; that every rejection is a 4xx
// JSON error, naming the offending field whenever the body decoded; that a
// repeat of an accepted body is a hit with identical bytes and ids; and
// that a by-name body and the same body with the spec inlined as ByName's
// JSON share one flight id — the oracle for the memoized by-name key.
func FuzzComputeBody(f *testing.F) {
	f.Add(uint8(0), "Xeon-E5462", "", 1.0, "", "")
	f.Add(uint8(1), "Opteron-8347", "Xeon-4870", math.Copysign(0, -1), "light", "")
	f.Add(uint8(2), "Xeon-4870", "Xeon-E5462", 1e300, "heavy", "")
	f.Add(uint8(2), "", "", 7.0, "none", "")
	f.Add(uint8(2), "Xeon-4870", "Pentium", 7.0, "", "")
	f.Add(uint8(0), "Pentium", "", 3.0, "bogus", "")
	f.Add(uint8(1), "Xeon-E5462", "", -2.5, "bogus", "")
	f.Add(uint8(0), "", "", 0.0, "", `{"server":"Xeon-E5462","seed":1,"spec":{"Name":"x"}}`)
	f.Add(uint8(0), "", "", 0.0, "", `{"spec":{"Name":"x","Cores":0},"seed":1}`)
	f.Add(uint8(2), "", "", 0.0, "", `{"specs":[null],"seed":1}`)
	f.Add(uint8(2), "", "", 0.0, "", `{"servers":["Xeon-4870"],"specs":[{}],"seed":1}`)
	f.Add(uint8(1), "", "", 0.0, "", `{"server":"Xeon-4870","seed":1,"extra":true}`)
	f.Add(uint8(0), "", "", 0.0, "", `{"server":"Xeon-4870","seed":1} {}`)
	f.Add(uint8(0), "", "", 0.0, "", `{"server":"Xeon-4870","seed":1,"timeout_ms":-5}`)
	s, err := newServer(Config{Obs: obs.New(), Jobs: 1}, func(s *Server) {
		s.evalFn = stubEval
		s.g500Fn = func(_ context.Context, spec *server.Spec, seed float64, _ core.EvalOptions) (*core.Green500Result, error) {
			return &core.Green500Result{Server: spec.Name, Rmax: seed, AvgWatts: spec.IdleWatts}, nil
		}
		s.cmpFn = func(_ context.Context, specs []*server.Spec, seed float64, _ core.EvalOptions) (*core.Comparison, error) {
			c := &core.Comparison{}
			for i, sp := range specs {
				c.Servers = append(c.Servers, sp.Name)
				c.Ours = append(c.Ours, seed+float64(i))
			}
			return c, nil
		}
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	ids := func(rec *httptest.ResponseRecorder) [3]string {
		hd := rec.Header()
		return [3]string{hd.Get(flightHeader), hd.Get(traceHeader), hd.Get("Traceparent")}
	}
	// check sends body and applies the per-response invariants; it returns
	// the accepted response, or nil for a rejection.
	check := func(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
		rec := post(path, body)
		if rec.Code != http.StatusOK {
			var e struct{ Error, Field string }
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s %s: status %d with a body that is not a JSON error: %q", path, body, rec.Code, rec.Body.Bytes())
			}
			if rec.Code == http.StatusGatewayTimeout && bytes.Contains(body, []byte("timeout_ms")) {
				return nil // a client-set deadline can beat even the stub
			}
			if rec.Code < 400 || rec.Code > 499 {
				t.Fatalf("%s %s: rejected with status %d, want 4xx: %s", path, body, rec.Code, e.Error)
			}
			if e.Field == "" && !strings.HasPrefix(e.Error, "malformed request body") {
				t.Fatalf("%s %s: rejection of a decoded body names no field: %s", path, body, e.Error)
			}
			return nil
		}
		if how := rec.Header().Get(cacheHeader); how != "hit" && how != "miss" {
			t.Fatalf("%s %s: cache status %q", path, body, how)
		}
		again := post(path, body)
		if again.Code != http.StatusOK || again.Header().Get(cacheHeader) != "hit" ||
			!bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) || ids(again) != ids(rec) {
			t.Fatalf("%s %s: repeat was not an identical hit: status %d cache %q ids %v vs %v",
				path, body, again.Code, again.Header().Get(cacheHeader), ids(again), ids(rec))
		}
		if tp := ids(rec)[2]; len(tp) != tracectx.TraceparentLen || tp[3:35] != ids(rec)[1] {
			t.Fatalf("%s %s: traceparent %q does not carry trace id %q", path, body, tp, ids(rec)[1])
		}
		return rec
	}
	routes := []string{"/v1/evaluate", "/v1/green500", "/v1/compare"}
	f.Fuzz(func(t *testing.T, route uint8, name, name2 string, seed float64, profile, raw string) {
		path := routes[int(route)%len(routes)]
		if raw != "" {
			check(t, path, []byte(raw))
			return
		}
		var byName, inline any
		if path == "/v1/compare" {
			var names []string
			for _, n := range []string{name, name2} {
				if n != "" {
					names = append(names, n)
				}
			}
			specs, err := builtinSpecs(names)
			if err != nil {
				specs = nil
			}
			byName = CompareRequest{Servers: names, Seed: seed, FaultProfile: profile}
			inline = CompareRequest{Specs: specs, Seed: seed, FaultProfile: profile}
		} else {
			sp, _ := server.ByName(name)
			byName = EvaluateRequest{Server: name, Seed: seed, FaultProfile: profile}
			inline = EvaluateRequest{Spec: sp, Seed: seed, FaultProfile: profile}
		}
		body, err := json.Marshal(byName)
		if err != nil {
			return // a non-finite seed has no JSON form
		}
		got := check(t, path, body)
		if got == nil {
			return
		}
		ibody, err := json.Marshal(inline)
		if err != nil {
			t.Fatal(err)
		}
		in := check(t, path, ibody)
		if in == nil {
			t.Fatalf("%s: %s was accepted but its inlined form %s was not", path, body, ibody)
		}
		if ids(in) != ids(got) || !bytes.Equal(in.Body.Bytes(), got.Body.Bytes()) {
			t.Fatalf("%s: by-name %s and inlined %s differ: ids %v vs %v", path, body, ibody, ids(got), ids(in))
		}
	})
}
