package obs

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"powerbench/internal/tracectx"
)

func TestSeriesLimitCapsCardinality(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesLimit(4)
	for i := 0; i < 20; i++ {
		r.Counter("hot_metric", L("id", strconv.Itoa(i))).Inc()
	}
	snap := r.Snapshot()
	series, dropped := 0, int64(0)
	for _, m := range snap.Metrics {
		switch m.Name {
		case "hot_metric":
			series++
		case droppedLabelsMetric:
			if m.Labels["metric"] != "hot_metric" {
				t.Fatalf("dropped-labels counter labeled %v", m.Labels)
			}
			dropped = int64(m.Value)
		}
	}
	// 4 labeled series admitted, plus the unlabeled fallback.
	if series != 5 {
		t.Fatalf("hot_metric has %d series, want 5", series)
	}
	if dropped != 16 {
		t.Fatalf("dropped %d label sets, want 16", dropped)
	}
	// The refused lookups all landed on one shared fallback counter.
	if got := r.Counter("hot_metric").Value(); got != 16 {
		t.Fatalf("fallback counter at %d, want 16", got)
	}
	// Existing series stay live past the limit.
	r.Counter("hot_metric", L("id", "0")).Inc()
	if got := r.Counter("hot_metric", L("id", "0")).Value(); got != 2 {
		t.Fatalf("admitted series at %d, want 2", got)
	}
}

func TestSeriesLimitGuardsGaugesAndHistograms(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesLimit(2)
	for i := 0; i < 6; i++ {
		r.Gauge("g", L("id", strconv.Itoa(i))).Set(float64(i))
		r.Histogram("h", nil, L("id", strconv.Itoa(i))).Observe(1)
	}
	if got := r.Counter(droppedLabelsMetric, L("metric", "g")).Value(); got != 4 {
		t.Fatalf("gauge drops %d, want 4", got)
	}
	if got := r.Counter(droppedLabelsMetric, L("metric", "h")).Value(); got != 4 {
		t.Fatalf("histogram drops %d, want 4", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 4 {
		t.Fatalf("fallback histogram saw %d observations, want 4", got)
	}
}

func TestExemplarExport(t *testing.T) {
	o := New()
	sp := tracectx.New(tracectx.DeriveID("exemplar export"), "request", "serve").Root().Child("state ep.C.8")
	ref := tracectx.FormatRef(sp.TraceID(), sp.ID())
	h := o.Histogram("core_phase_energy_joules", []float64{10, 100}, L("component", "cpu"))
	h.ObserveExemplar(42.5, sp.TraceID(), sp.ID())

	ex := h.Exemplar()
	if ex == nil || ex.Value != 42.5 || ex.Ref != ref {
		t.Fatalf("exemplar %+v", ex)
	}
	snap := o.Metrics.Snapshot()
	found := false
	for _, m := range snap.Metrics {
		if m.Name == "core_phase_energy_joules" && m.Exemplar != nil {
			found = true
			if m.Exemplar.Ref != ref {
				t.Fatalf("snapshot exemplar ref %q", m.Exemplar.Ref)
			}
		}
	}
	if !found {
		t.Fatal("snapshot lacks the exemplar")
	}
	var b strings.Builder
	if err := WritePrometheus(&b, o.Metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `# {span="`+ref+`"} 42.5`) {
		t.Fatalf("prometheus output lacks exemplar:\n%s", b.String())
	}

	// A nil span (an untraced run) observes without an exemplar.
	var untraced *tracectx.Span
	u := o.Histogram("untraced", []float64{1})
	u.ObserveExemplar(0.5, untraced.TraceID(), untraced.ID())
	if u.Count() != 1 || u.Exemplar() != nil {
		t.Fatalf("untraced observation: count %d, exemplar %+v", u.Count(), u.Exemplar())
	}
}

func TestRuntimeBridge(t *testing.T) {
	r := NewRegistry()
	b := NewRuntimeBridge(r)
	b.Sample()
	if g := r.Gauge("go_goroutines").Value(); g < 1 {
		t.Fatalf("go_goroutines %g", g)
	}
	if g := r.Gauge("go_memory_total_bytes").Value(); g <= 0 {
		t.Fatalf("go_memory_total_bytes %g", g)
	}
	// Cumulative series must be monotone across samples.
	first := r.Counter("go_heap_allocs_bytes_total").Value()
	_ = make([]byte, 1<<20)
	b.Sample()
	if second := r.Counter("go_heap_allocs_bytes_total").Value(); second < first {
		t.Fatalf("alloc counter went backwards: %d -> %d", first, second)
	}
	stop := b.Start(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	stop()
	var nb *RuntimeBridge
	nb.Sample()
	nb.Start(time.Second)()
}

func TestSLOTrackerBurnRates(t *testing.T) {
	r := NewRegistry()
	tr := NewSLOTracker(r, SLOConfig{
		Availability:     0.99, // budget 1%
		LatencyObjective: 0.9,  // budget 10%
		LatencyThreshold: 100 * time.Millisecond,
	})
	now := int64(1_000_000)
	// 100 requests in the last minute: 2 errors (2% error rate, 2× budget),
	// 30 slow (30% slow, 3× budget).
	for i := 0; i < 100; i++ {
		status, lat := 200, 10*time.Millisecond
		if i < 2 {
			status = 500
		}
		if i < 30 {
			lat = 200 * time.Millisecond
		}
		tr.observeAt(now-int64(i%60), status, lat)
	}
	tr.publishAt(now)
	availability5m := r.Gauge("slo_availability_burn_rate", L("window", "5m")).Value()
	if availability5m < 1.99 || availability5m > 2.01 {
		t.Fatalf("availability burn %g, want ~2", availability5m)
	}
	latency1h := r.Gauge("slo_latency_burn_rate", L("window", "1h")).Value()
	if latency1h < 2.99 || latency1h > 3.01 {
		t.Fatalf("latency burn %g, want ~3", latency1h)
	}
	// An hour later every slot has expired: burn rates decay to zero.
	tr.publishAt(now + 2*slotCount)
	if v := r.Gauge("slo_availability_burn_rate", L("window", "1h")).Value(); v != 0 {
		t.Fatalf("stale availability burn %g, want 0", v)
	}
	var nt *SLOTracker
	nt.Observe(200, time.Millisecond)
	nt.Publish()
}
