package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"powerbench/internal/tracectx"
)

// FuzzMetricName checks the validator's contract: any name it accepts must
// be safe to emit in the Prometheus text format — non-empty, a single line,
// no braces, no spaces — and must export as a line starting with the name
// itself. Anything containing a forbidden character must be rejected.
func FuzzMetricName(f *testing.F) {
	for _, seed := range []string{
		"comm_messages_total", "a:b", "_private", "",
		"bad name", "new\nline", "br{ace", "ace}", "9lead", "é",
		"x\x00y", "trailing_", "le", "# TYPE evil counter",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		err := ValidateMetricName(name)
		if strings.ContainsAny(name, "\n\r{} \"\\#") || name == "" {
			if err == nil {
				t.Fatalf("ValidateMetricName(%q) accepted a forbidden name", name)
			}
			return
		}
		if err != nil {
			return
		}
		// Accepted names must round-trip through the exporter intact.
		r := NewRegistry()
		r.Counter(name).Add(1)
		var b bytes.Buffer
		if err := WritePrometheus(&b, r); err != nil {
			t.Fatalf("export failed for accepted name %q: %v", name, err)
		}
		lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		if len(lines) != 2 {
			t.Fatalf("accepted name %q produced %d exposition lines: %q", name, len(lines), b.String())
		}
		if lines[0] != "# TYPE "+name+" counter" || lines[1] != name+" 1" {
			t.Fatalf("accepted name %q corrupted the exposition: %q", name, b.String())
		}
	})
}

// FuzzLabel mirrors FuzzMetricName for label pairs: accepted labels must
// never contain characters that break the unescaped exposition rendering.
func FuzzLabel(f *testing.F) {
	f.Add("op", "bcast")
	f.Add("", "x")
	f.Add("k", "")
	f.Add("k", "a\nb")
	f.Add("k", `with"quote`)
	f.Add("k", "{}")
	f.Fuzz(func(t *testing.T, key, value string) {
		if err := ValidateLabel(Label{key, value}); err != nil {
			return
		}
		if key == "" || value == "" {
			t.Fatalf("empty label component accepted: %q=%q", key, value)
		}
		if strings.ContainsAny(key+value, "\n\r\"\\{}") {
			t.Fatalf("forbidden character accepted in label %q=%q", key, value)
		}
	})
}

// FuzzMergeSnapshot merges decoded peer snapshots, as GET /v1/peer/obs
// delivers them, and checks the merge's contract: it does not panic,
// leaves its inputs as they were and orders its output; counters with the
// same (name, labels) sum; a histogram group merges into one series only
// when every member's buckets align, its counts summed and its exemplar
// one of the members' own; and a group whose buckets disagree stays one
// shard-labeled series per member. A shard's snapshot that does not decode
// contributes nothing. Metrics that already carry a shard label are left
// out: the merge adds that label, and no registry series has one.
func FuzzMergeSnapshot(f *testing.F) {
	snap := func(build func(r *Registry)) []byte {
		r := NewRegistry()
		build(r)
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	a := snap(func(r *Registry) {
		r.Counter("http_requests_total", L("class", "2xx")).Add(3)
		r.Gauge("serve_trace_entries").Set(2)
		r.Histogram("serve_compute_seconds", nil).ObserveExemplar(0.25, tracectx.DeriveID("a"), tracectx.SpanID{})
	})
	b := snap(func(r *Registry) {
		r.Counter("http_requests_total", L("class", "2xx")).Add(4)
		r.Counter("http_requests_total", L("class", "5xx")).Inc()
		r.Histogram("serve_compute_seconds", nil).ObserveExemplar(1.5, tracectx.DeriveID("b"), tracectx.SpanID{1})
	})
	c := snap(func(r *Registry) {
		r.Histogram("serve_compute_seconds", []float64{0.5, 5}).Observe(2)
		r.Gauge("serve_trace_entries").Set(7)
	})
	f.Add(a, b, c)
	f.Add(a, b, []byte(`{"metrics":[]}`))
	f.Add(a, a, a)
	f.Add([]byte(`{"metrics":[{"name":"x","type":"histogram","buckets":[{"le":1,"count":2}]},{"name":"x","type":"histogram"}]}`),
		[]byte(`{"metrics":[{"name":"x","type":"histogram","buckets":[{"le":1,"count":1}],"exemplar":{"ref":"r","value":3}}]}`),
		[]byte(`{"metrics":[{"name":"x","type":"counter","value":1e308},{"name":"x","type":"counter","value":1e308}]}`))
	f.Add([]byte(`{"metrics":[{"name":"y","type":"mystery","labels":{"k":"v"}}]}`), []byte(`not json`), []byte(``))
	f.Fuzz(func(t *testing.T, x, y, z []byte) {
		shards := map[string]Snapshot{}
		for i, raw := range [][]byte{x, y, z} {
			var s Snapshot
			if json.Unmarshal(raw, &s) != nil {
				continue
			}
			kept := s.Metrics[:0]
			for _, m := range s.Metrics {
				if _, ok := m.Labels["shard"]; !ok {
					kept = append(kept, m)
				}
			}
			s.Metrics = kept
			shards["s"+strconv.Itoa(i)] = s
		}
		before, _ := json.Marshal(shards)
		merged := MergeSnapshot(shards)
		if after, _ := json.Marshal(shards); string(after) != string(before) {
			t.Fatal("MergeSnapshot changed its inputs")
		}

		// The groups the merge forms: shard ids in order, each shard's
		// metrics in order, keyed by type and (name, labels).
		type member struct {
			shard string
			m     SnapshotMetric
		}
		groups := map[string][]member{}
		var keys []string
		ids := make([]string, 0, len(shards))
		for id := range shards {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			for _, m := range shards[id].Metrics {
				k := m.Type + "\x00" + mapKey(m.Name, m.Labels)
				if _, ok := groups[k]; !ok {
					keys = append(keys, k)
				}
				groups[k] = append(groups[k], member{id, m})
			}
		}
		out := map[string][]SnapshotMetric{}
		for i, m := range merged.Metrics {
			if i > 0 && mapKey(merged.Metrics[i-1].Name, merged.Metrics[i-1].Labels) > mapKey(m.Name, m.Labels) {
				t.Fatalf("merged output out of order at %d", i)
			}
			k := m.Type + "\x00" + mapKey(m.Name, m.Labels)
			out[k] = append(out[k], m)
		}
		same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
		for _, k := range keys {
			g := groups[k]
			switch g[0].m.Type {
			case "counter":
				var sum float64
				for i, s := range g {
					if i == 0 {
						sum = s.m.Value
					} else {
						sum += s.m.Value
					}
				}
				if len(out[k]) != 1 || !same(out[k][0].Value, sum) {
					t.Fatalf("counter %q: merged %+v, want one series of value %v", k, out[k], sum)
				}
			case "histogram":
				ms := make([]SnapshotMetric, len(g))
				for i, s := range g {
					ms[i] = s.m
				}
				if !bucketsAligned(ms) {
					if len(out[k]) != 0 {
						t.Fatalf("histogram %q with disagreeing buckets merged: %+v", k, out[k])
					}
					for _, s := range g {
						sk := k[:len(s.m.Type)+1] + mapKey(s.m.Name, withShardLabel(s.m.Labels, s.shard))
						if len(out[sk]) == 0 {
							t.Fatalf("histogram %q: shard %s's series is missing", k, s.shard)
						}
					}
					continue
				}
				if len(out[k]) != 1 {
					t.Fatalf("histogram %q with aligned buckets: %d merged series, want 1", k, len(out[k]))
				}
				h := out[k][0]
				var count int64
				counts := make([]int64, len(g[0].m.Buckets))
				var inExemplar bool
				for _, s := range g {
					count += s.m.Count
					for i, b := range s.m.Buckets {
						counts[i] += b.Count
					}
					if e := s.m.Exemplar; e != nil && h.Exemplar != nil && *e == *h.Exemplar {
						inExemplar = true
					}
				}
				if h.Count != count || len(h.Buckets) != len(counts) {
					t.Fatalf("histogram %q: count %d over %d buckets, want %d over %d", k, h.Count, len(h.Buckets), count, len(counts))
				}
				for i, b := range h.Buckets {
					if b.Count != counts[i] || b.UpperBound != g[0].m.Buckets[i].UpperBound {
						t.Fatalf("histogram %q bucket %d: %+v, want le %v count %d", k, i, b, g[0].m.Buckets[i].UpperBound, counts[i])
					}
				}
				if h.Exemplar != nil && !inExemplar {
					t.Fatalf("histogram %q: merged exemplar %+v is none of its members'", k, *h.Exemplar)
				}
				if h.Exemplar == nil {
					for _, s := range g {
						if s.m.Exemplar != nil {
							t.Fatalf("histogram %q: members' exemplars lost", k)
						}
					}
				}
			}
		}
	})
}
