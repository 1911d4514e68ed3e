package obs

import (
	"sync"
	"testing"
)

// TestTracerRootTracks: every root span opens its own track with one begin
// and one end event, in timestamp order, and a double End emits nothing.
func TestTracerRootTracks(t *testing.T) {
	tr := NewTracer()
	a := tr.Start("evaluate Xeon-E5462", "evaluate")
	a.End()
	a.End() // double End must be a no-op
	b := tr.Start("green500 Xeon-E5462", "evaluate")
	b.End()

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (double End must not emit)", len(evs))
	}
	wantPhases := []byte{'B', 'E', 'B', 'E'}
	for i, e := range evs {
		if e.Phase != wantPhases[i] {
			t.Errorf("event %d phase %c, want %c", i, e.Phase, wantPhases[i])
		}
		if i > 0 && e.TS < evs[i-1].TS {
			t.Errorf("timestamps out of order: %d after %d", e.TS, evs[i-1].TS)
		}
	}
	if evs[0].Tid != evs[1].Tid || evs[2].Tid != evs[3].Tid {
		t.Error("a span's begin and end must share its track")
	}
	if evs[0].Tid == evs[2].Tid {
		t.Error("second root span should get its own track")
	}
	if evs[1].Name != "evaluate Xeon-E5462" || evs[1].Cat != "evaluate" {
		t.Errorf("end event %+v lost the span's name or category", evs[1])
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Start("work", "bench").End()
			}
		}(w)
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != 8*200*2 {
		t.Fatalf("got %d events, want %d", len(evs), 8*200*2)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("timestamps regress at %d", i)
		}
	}
}
