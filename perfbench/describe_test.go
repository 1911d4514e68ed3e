package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"powerbench/internal/tracectx"
)

// The committed BENCHMARK.json and workloads.json are renderings of
// spec.go; regenerate them with
//
//	.bench_build/perfbench -describe > BENCHMARK.json
//	.bench_build/perfbench -describe-workloads > perfbench/workloads.json
func TestCommittedDescriptionsMatchSpec(t *testing.T) {
	for file, want := range map[string][]byte{
		"../BENCHMARK.json": benchmarkJSON(),
		"workloads.json":    workloadsJSON(),
	} {
		got, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale; regenerate it from spec.go", file)
		}
	}
}

func TestBenchmarkJSONContract(t *testing.T) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(benchmarkJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(doc))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("bad unit %q for %s", u, n)
		}
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) missing")
	}
	for _, l := range perLayer {
		check(l.Name, l.Unit)
		if l.Better != "lower" && l.Better != "higher" {
			t.Errorf("%s: better %q", l.Name, l.Better)
		}
	}
}

func TestSpanTimesFromDoc(t *testing.T) {
	sp := func(id, parent, name string, start, dur int64) tracectx.SpanDoc {
		return tracectx.SpanDoc{ID: id, Parent: parent, Name: name, StartUS: start, DurUS: dur}
	}
	doc := &tracectx.Doc{Spans: []tracectx.SpanDoc{
		sp("r", "", "/v1/evaluate", 0, 1000),
		sp("c", "r", "cache", 0, 5),
		sp("a", "r", "admission", 15, 1),
		sp("k", "r", "compute", 20, 900),
		sp("e", "k", "evaluate Xeon-E5462", 30, 800),
		sp("j0", "e", "sim job 0", 40, 300),
		sp("j1", "e", "sim job 1", 40, 300),
		sp("u0", "j0", "run HPL", 50, 280),
		sp("u1", "j1", "run EP", 60, 200),
		sp("m", "u0", "meter record", 60, 100),
		sp("p", "u0", "pmu collect", 160, 100),
		sp("n", "e", "analysis", 400, 50),
		sp("s", "n", "state HPL", 400, 40),
		sp("x", "s", "repair", 430, 0),
	}}
	var st spanTimes
	st.add(doc)
	want := map[string]float64{
		"evaluate": 800, "analysis": 50, "repair": 30, "meter": 100, "pmu": 100,
		"cacheLookup": 5, "admission": 11,
		// jobs: 300-280 and 300-200; run self: 280-200 and 200.
		"schedOverhead": 120, "simSelf": 280,
		// compute 900 minus its evaluate child 800.
		"computeSelf": 100,
	}
	got := map[string]float64{
		"evaluate": st.evaluate, "analysis": st.analysis, "repair": st.repair, "meter": st.meter,
		"pmu": st.pmu, "cacheLookup": st.cacheLookup, "admission": st.admission,
		"schedOverhead": st.schedOverhead, "simSelf": st.simSelf, "computeSelf": st.computeSelf,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
}
