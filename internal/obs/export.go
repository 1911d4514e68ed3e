package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// --- JSON snapshot ---

// SnapshotBucket is one cumulative histogram bucket.
type SnapshotBucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// SnapshotMetric is one metric in a JSON snapshot.
type SnapshotMetric struct {
	Name    string            `json:"name"`
	Type    string            `json:"type"` // counter | gauge | histogram
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Count   int64             `json:"count,omitempty"`
	Buckets []SnapshotBucket  `json:"buckets,omitempty"`
	// Exemplar links the histogram's most recent ObserveExemplar call to its
	// originating trace span.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Snapshot is the exportable state of a registry (and optionally the event
// history), ordered deterministically by (name, labels).
type Snapshot struct {
	Metrics []SnapshotMetric `json:"metrics"`
	Events  []Event          `json:"events,omitempty"`
}

func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

func sortKey(name string, ls []Label) string { return metricKey(name, ls) }

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	type entry struct {
		key string
		m   SnapshotMetric
	}
	var entries []entry
	for _, c := range r.counters {
		entries = append(entries, entry{sortKey(c.name, c.labels), SnapshotMetric{
			Name: c.name, Type: "counter", Labels: labelMap(c.labels), Value: float64(c.Value()),
		}})
	}
	for _, g := range r.gauges {
		entries = append(entries, entry{sortKey(g.name, g.labels), SnapshotMetric{
			Name: g.name, Type: "gauge", Labels: labelMap(g.labels), Value: g.Value(),
		}})
	}
	for _, h := range r.histograms {
		m := SnapshotMetric{
			Name: h.name, Type: "histogram", Labels: labelMap(h.labels),
			Sum: h.Sum(), Exemplar: h.Exemplar(),
		}
		var cum int64
		for i, ub := range h.bounds {
			cum += h.counts[i].Load()
			m.Buckets = append(m.Buckets, SnapshotBucket{UpperBound: ub, Count: cum})
		}
		// Load the total after the buckets and clamp it to their sum: a
		// live registry is observed while it is scraped, and the +Inf
		// bucket (rendered from Count) must never fall below a finite one.
		m.Count = h.Count()
		if m.Count < cum {
			m.Count = cum
		}
		entries = append(entries, entry{sortKey(h.name, h.labels), m})
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	for _, e := range entries {
		snap.Metrics = append(snap.Metrics, e.m)
	}
	return snap
}

// WriteJSON writes the registry snapshot (plus the logger's event history,
// when a logger is present) as indented JSON.
func WriteJSON(w io.Writer, o *Obs) error {
	var snap Snapshot
	if o != nil {
		snap = o.Metrics.Snapshot()
		snap.Events = o.Log.Events()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// ParseSnapshot decodes a snapshot produced by WriteJSON, the round-trip
// half of the JSON exporter.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("obs: parsing snapshot: %w", err)
	}
	for _, m := range snap.Metrics {
		if err := ValidateMetricName(m.Name); err != nil {
			return Snapshot{}, err
		}
		switch m.Type {
		case "counter", "gauge", "histogram":
		default:
			return Snapshot{}, fmt.Errorf("obs: snapshot metric %s has unknown type %q", m.Name, m.Type)
		}
	}
	return snap, nil
}

// --- Prometheus text exposition ---

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func promLabels(labels map[string]string, extra ...string) string {
	// extra is alternating key/value pairs appended after the sorted labels
	// (used for histogram le).
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", extra[i], extra[i+1]))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` header per metric family followed by
// its samples, families and samples sorted for deterministic output.
func WritePrometheus(w io.Writer, r *Registry) error {
	snap := r.Snapshot()
	// Group by family (name) preserving snapshot order within a family.
	type family struct {
		typ     string
		metrics []SnapshotMetric
	}
	families := map[string]*family{}
	var names []string
	for _, m := range snap.Metrics {
		f, ok := families[m.Name]
		if !ok {
			f = &family{typ: m.Type}
			families[m.Name] = f
			names = append(names, m.Name)
		}
		f.metrics = append(f.metrics, m)
	}
	sort.Strings(names)
	for _, name := range names {
		f := families[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		for _, m := range f.metrics {
			switch m.Type {
			case "counter", "gauge":
				if _, err := fmt.Fprintf(w, "%s%s %s\n", name, promLabels(m.Labels), formatValue(m.Value)); err != nil {
					return err
				}
			case "histogram":
				for _, b := range m.Buckets {
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name,
						promLabels(m.Labels, "le", formatValue(b.UpperBound)), b.Count); err != nil {
						return err
					}
				}
				// The exemplar rides on the +Inf bucket line (OpenMetrics
				// syntax); plain 0.0.4 scrapers treat the suffix as a comment.
				exemplar := ""
				if m.Exemplar != nil {
					exemplar = fmt.Sprintf(" # {span=%q} %s", m.Exemplar.Ref, formatValue(m.Exemplar.Value))
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", name,
					promLabels(m.Labels, "le", "+Inf"), m.Count, exemplar); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(m.Labels), formatValue(m.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(m.Labels), m.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
