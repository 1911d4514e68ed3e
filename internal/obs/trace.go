package obs

import (
	"sync"
	"time"
)

// Tracer records root spans, each on its own track, as begin/end events
// stamped on the wall clock (microseconds since the tracer's epoch). It is
// not the pipeline's span model: stages trace through internal/tracectx,
// whose identity-derived trees are what -trace-out and /v1/traces render.
// The tracer survives only for the two method roots core opens ("evaluate
// X", "green500 X"), whose events the benchmark harness reads to measure
// campaign worker busy time; the next benchmark change moves that reading
// onto tracectx and deletes this file.
//
// Begin/end events are appended under one mutex with the timestamp taken
// inside the critical section, so the event list is ordered by
// non-decreasing timestamp by construction.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	events  []TraceEvent
	nextTid int64
}

// TraceEvent is one begin ('B') or end ('E') record.
type TraceEvent struct {
	Name  string
	Cat   string
	Phase byte  // 'B' or 'E'
	TS    int64 // microseconds since the tracer epoch
	Tid   int64
}

// Span is an open root span. A nil span is a no-op.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	tid   int64
	ended bool
}

// NewTracer returns a tracer whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

func (t *Tracer) record(name, cat string, phase byte, tid int64) {
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Phase: phase,
		TS:  time.Since(t.epoch).Microseconds(),
		Tid: tid,
	})
	t.mu.Unlock()
}

// Start opens a root span on a fresh track. Nil tracers return a nil span.
func (t *Tracer) Start(name, cat string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextTid++
	tid := t.nextTid
	t.mu.Unlock()
	t.record(name, cat, 'B', tid)
	return &Span{t: t, name: name, cat: cat, tid: tid}
}

// End closes the span. Ending twice is a no-op, so defer sp.End() composes
// with explicit early ends.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.t.record(s.name, s.cat, 'E', s.tid)
}

// Events returns a snapshot of the recorded events in timestamp order.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}
