package obs

import (
	"reflect"
	"testing"

	"powerbench/internal/tracectx"
)

func snapOf(r *Registry) Snapshot { return r.Snapshot() }

func TestMergeSnapshotCounters(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("reqs_total").Add(3)
	b.Counter("reqs_total").Add(4)
	a.Counter("hits_total", L("route", "/x")).Add(1)

	merged := MergeSnapshot(map[string]Snapshot{"s0": snapOf(a), "s1": snapOf(b)})
	got := map[string]float64{}
	for _, m := range merged.Metrics {
		if m.Type != "counter" {
			t.Fatalf("unexpected type %q for %s", m.Type, m.Name)
		}
		got[mapKey(m.Name, m.Labels)] = m.Value
	}
	if got["reqs_total"] != 7 {
		t.Errorf("summed counter = %v, want 7", got["reqs_total"])
	}
	if got[mapKey("hits_total", map[string]string{"route": "/x"})] != 1 {
		t.Errorf("labeled counter lost: %v", got)
	}
}

func TestMergeSnapshotGaugesPerShard(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Gauge("inflight").Set(2)
	b.Gauge("inflight").Set(5)

	merged := MergeSnapshot(map[string]Snapshot{"s0": snapOf(a), "s1": snapOf(b)})
	if len(merged.Metrics) != 2 {
		t.Fatalf("want 2 shard-labeled gauges, got %+v", merged.Metrics)
	}
	for i, want := range []struct {
		shard string
		val   float64
	}{{"s0", 2}, {"s1", 5}} {
		m := merged.Metrics[i]
		if m.Labels["shard"] != want.shard || m.Value != want.val {
			t.Errorf("gauge[%d] = %+v, want shard %s value %v", i, m, want.shard, want.val)
		}
	}
}

func TestMergeSnapshotHistograms(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	bounds := []float64{0.1, 1, 10}
	ha := a.Histogram("lat_seconds", bounds)
	hb := b.Histogram("lat_seconds", bounds)
	root := tracectx.New(tracectx.DeriveID("merge"), "request", "serve").Root()
	spanA, spanB := root.Child("a"), root.Child("b")
	ha.Observe(0.05) // bucket 0
	ha.ObserveExemplar(5, spanA.TraceID(), spanA.ID())
	hb.Observe(0.5) // bucket 1
	hb.ObserveExemplar(7, spanB.TraceID(), spanB.ID())

	merged := MergeSnapshot(map[string]Snapshot{"s0": snapOf(a), "s1": snapOf(b)})
	if len(merged.Metrics) != 1 {
		t.Fatalf("want 1 merged histogram, got %+v", merged.Metrics)
	}
	m := merged.Metrics[0]
	if m.Count != 4 { // 2 observes + 2 exemplar observes
		t.Errorf("merged count = %d, want 4", m.Count)
	}
	wantBuckets := []SnapshotBucket{{0.1, 1}, {1, 2}, {10, 4}}
	if !reflect.DeepEqual(m.Buckets, wantBuckets) {
		t.Errorf("merged buckets = %+v, want %+v", m.Buckets, wantBuckets)
	}
	if want := tracectx.FormatRef(spanB.TraceID(), spanB.ID()); m.Exemplar == nil || m.Exemplar.Value != 7 || m.Exemplar.Ref != want {
		t.Errorf("exemplar = %+v, want the larger (7, %s)", m.Exemplar, want)
	}
}

func TestMergeSnapshotMismatchedBucketsDegrade(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Histogram("lat_seconds", []float64{0.1, 1}).Observe(0.5)
	b.Histogram("lat_seconds", []float64{0.5, 5}).Observe(0.5)

	merged := MergeSnapshot(map[string]Snapshot{"s0": snapOf(a), "s1": snapOf(b)})
	if len(merged.Metrics) != 2 {
		t.Fatalf("mismatched bounds must stay per-shard, got %+v", merged.Metrics)
	}
	for _, m := range merged.Metrics {
		if m.Labels["shard"] == "" {
			t.Errorf("degraded histogram missing shard label: %+v", m)
		}
	}
}

func TestMergeSnapshotDeterministic(t *testing.T) {
	build := func() map[string]Snapshot {
		a, b, c := NewRegistry(), NewRegistry(), NewRegistry()
		for i, r := range []*Registry{a, b, c} {
			r.Counter("x_total").Add(int64(i + 1))
			r.Gauge("g").Set(float64(i))
			r.Histogram("h_seconds", []float64{1}).Observe(0.5)
		}
		return map[string]Snapshot{"s2": snapOf(c), "s0": snapOf(a), "s1": snapOf(b)}
	}
	m1 := MergeSnapshot(build())
	m2 := MergeSnapshot(build())
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("merge is not deterministic:\n%+v\n%+v", m1, m2)
	}
	for i := 1; i < len(m1.Metrics); i++ {
		if mapKey(m1.Metrics[i-1].Name, m1.Metrics[i-1].Labels) > mapKey(m1.Metrics[i].Name, m1.Metrics[i].Labels) {
			t.Fatalf("merged snapshot out of order at %d: %+v", i, m1.Metrics)
		}
	}
}

func TestMergeSnapshotDoesNotMutateInputs(t *testing.T) {
	a := NewRegistry()
	a.Gauge("g").Set(1)
	snap := snapOf(a)
	before := len(snap.Metrics[0].Labels)
	MergeSnapshot(map[string]Snapshot{"s0": snap})
	if len(snap.Metrics[0].Labels) != before {
		t.Fatal("MergeSnapshot mutated an input label map")
	}
}
