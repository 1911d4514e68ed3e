package main

import (
	"strconv"
	"strings"

	"powerbench/internal/tracectx"
)

// spanTimes accumulates wall time per layer from exported request traces,
// in microseconds (the trace document's resolution).
type spanTimes struct {
	docs int
	// core
	evaluate, green500, compare, analysis, repair float64
	// sched: job and attempt wall not covered by their children
	schedOverhead float64
	// sim run wall not covered by its phase, meter and pmu children
	simSelf float64
	meter   float64
	pmu     float64
	// serve (daemon traces only)
	computeSelf, cacheLookup, admission float64
}

// isJobSpan matches the scheduler's per-job span names ("sim job 3",
// "compare job 0").
func isJobSpan(name string) bool {
	_, n, ok := strings.Cut(name, " job ")
	if !ok {
		return false
	}
	_, err := strconv.Atoi(n)
	return err == nil
}

func span2iv(s *tracectx.SpanDoc) interval {
	return interval{s.StartUS, s.StartUS + s.DurUS}
}

// add folds one trace document into the totals. Self times subtract the
// union of a span's child intervals, so overlapping parallel children are
// counted once.
func (t *spanTimes) add(doc *tracectx.Doc) {
	t.docs++
	byID := make(map[string]*tracectx.SpanDoc, len(doc.Spans))
	kids := make(map[string][]interval, len(doc.Spans))
	for i := range doc.Spans {
		s := &doc.Spans[i]
		byID[s.ID] = s
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], span2iv(s))
		}
	}
	self := func(s *tracectx.SpanDoc) float64 {
		return float64(selfTime(span2iv(s), kids[s.ID]))
	}
	var cacheEnd int64 = -1
	for i := range doc.Spans {
		if s := &doc.Spans[i]; s.Name == "cache" {
			cacheEnd = s.StartUS + s.DurUS
		}
	}
	for i := range doc.Spans {
		s := &doc.Spans[i]
		d := float64(s.DurUS)
		switch {
		case isJobSpan(s.Name) || strings.HasPrefix(s.Name, "attempt "):
			t.schedOverhead += self(s)
		case strings.HasPrefix(s.Name, "evaluate "):
			t.evaluate += d
		case strings.HasPrefix(s.Name, "green500 "):
			t.green500 += d
		case s.Name == "compare":
			t.compare += d
		case s.Name == "analysis":
			t.analysis += d
		case s.Name == "repair":
			// The repair span is opened once meter.Repair has returned, so
			// the pass itself is the time from its state span's start to
			// the repair span's start.
			if p := byID[s.Parent]; p != nil {
				t.repair += float64(s.StartUS - p.StartUS)
			}
		case strings.HasPrefix(s.Name, "run "):
			t.simSelf += self(s)
		case s.Name == "meter record":
			t.meter += d
		case s.Name == "pmu collect":
			t.pmu += d
		case s.Name == "compute":
			t.computeSelf += self(s)
		case s.Name == "cache":
			t.cacheLookup += d
		case s.Name == "admission" && cacheEnd >= 0:
			// Admission's span is stamped after the slot is taken: the
			// admission step is the gap since the cache lookup ended.
			t.admission += float64(s.StartUS + s.DurUS - cacheEnd)
		}
	}
}

// fill sets the span-derived per-layer metrics as means per traced op.
func (t *spanTimes) fill(r *result) {
	if t.docs == 0 {
		return
	}
	n := float64(t.docs)
	ms := func(us float64) float64 { return us / n / 1000 }
	r.layer["core.evaluate_ms"] = ms(t.evaluate)
	r.layer["core.green500_ms"] = ms(t.green500)
	r.layer["core.compare_ms"] = ms(t.compare)
	r.layer["core.analysis_ms"] = ms(t.analysis)
	r.layer["core.repair_ms"] = ms(t.repair)
	r.layer["sched.overhead_ms"] = ms(t.schedOverhead)
	r.layer["sim.run_self_ms"] = ms(t.simSelf)
	r.layer["meter.record_ms"] = ms(t.meter)
	r.layer["pmu.collect_ms"] = ms(t.pmu)
	r.layer["serve.compute_self_ms"] = ms(t.computeSelf)
	r.layer["serve.cache_lookup_us"] = t.cacheLookup / n
	r.layer["serve.admission_us"] = t.admission / n
	r.note("span times are means over %d traced ops", t.docs)
}

// pmuMicros sums a document's "pmu collect" span walls.
func pmuMicros(doc *tracectx.Doc) float64 {
	var us float64
	for i := range doc.Spans {
		if doc.Spans[i].Name == "pmu collect" {
			us += float64(doc.Spans[i].DurUS)
		}
	}
	return us
}

// fillCounters sets the count-derived per-layer metrics from program
// counter deltas over ops operations.
func (r *result) fillCounters(c series, ops int) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	per := func(name, family string) {
		v := c.family(family)
		r.layer[name] = v / n
		r.note("%s = %.4f (%s %.0f / ops %d)", name, v/n, family, v, ops)
	}
	per("sched.jobs_per_op", "sched_jobs_total")
	per("sim.runs_per_op", "sim_runs_total")
	per("meter.samples_per_op", "sim_meter_samples_total")
	per("pmu.windows_per_op", "sim_pmu_windows_total")
	per("fault.repair_actions_per_op", "core_repair_actions_total")
	r.ratio("sched.stolen_ratio", c.family("sched_jobs_stolen_total"), c.family("sched_jobs_total"), "stolen", "jobs")
}
