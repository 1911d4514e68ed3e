package meter

import (
	"math"
	"slices"
	"testing"
)

// TestStepsAppendLists: Append lists exactly the entries whose step does
// not follow the previous entry's (a gap, a repeat, a head past step 0)
// and the non-finite readings, the cursor reads every step back, and
// Truncate drops the listed entries it cuts.
func TestStepsAppendLists(t *testing.T) {
	var s Steps
	for _, e := range []struct {
		k uint32
		w float64
	}{{2, 1}, {3, 2}, {5, 3}, {5, 4}, {6, math.NaN()}, {7, 6}, {8, math.Inf(1)}, {11, 8}, {12, 9}} {
		s.Append(e.k, e.w)
	}
	steps := func(s Steps) []uint32 {
		var out []uint32
		cur := s.Cursor()
		for range s.W {
			out = append(out, cur.Next())
		}
		return out
	}
	if want := []Jump{{0, 2}, {2, 5}, {3, 5}, {4, 6}, {6, 8}, {7, 11}}; !slices.Equal(s.J, want) {
		t.Errorf("listed %v, want %v", s.J, want)
	}
	if got, want := steps(s), []uint32{2, 3, 5, 5, 6, 7, 8, 11, 12}; !slices.Equal(got, want) {
		t.Errorf("steps %v, want %v", got, want)
	}
	s.Truncate(4)
	if want := []Jump{{0, 2}, {2, 5}, {3, 5}}; s.Len() != 4 || !slices.Equal(s.J, want) {
		t.Errorf("truncated to %d entries listing %v, want 4 listing %v", s.Len(), s.J, want)
	}
	if got, want := steps(s), []uint32{2, 3, 5, 5}; !slices.Equal(got, want) {
		t.Errorf("truncated steps %v, want %v", got, want)
	}
	s.Truncate(0)
	if s.Len() != 0 || len(s.J) != 0 {
		t.Errorf("truncated to nothing: %d entries listing %v", s.Len(), s.J)
	}

	var clean Steps
	for k := uint32(0); k < 4; k++ {
		clean.Append(k, 1)
	}
	if clean.J != nil {
		t.Errorf("steps 0, 1, 2, 3 listed %v", clean.J)
	}
}

// TestRepairWindowListRoom repairs a run's step log whose window head a
// clock skew cuts, so the clean pass lists the first clean entry's step
// beyond the entries the log lists: with no spare slot in the list it
// moves the clean list to an array of its own, and with one it lists the
// clean steps in place and allocates nothing. Either way the repair
// equals RepairSummary over the same entries stored as Samples. The log
// drops, repeats and NaNs readings, as a fault injector does.
func TestRepairWindowListRoom(t *testing.T) {
	const start, end = 100.0, 400.0
	m := New(3)
	m.ClockSkewSec = -2.5
	var log []Sample
	var raw Steps
	m.Take(start, end, func(t float64) float64 { return 200 + float64(int(t)%11) }, func(k int, s Sample) {
		switch {
		case k%17 == 5: // dropped
			return
		case k%23 == 7: // NaN
			s.Watts = math.NaN()
		case k%19 == 11: // duplicated
			log = append(log, s)
			raw.Append(uint32(k), s.Watts)
		}
		log = append(log, s)
		raw.Append(uint32(k), s.Watts)
	})
	if log[0].T >= start {
		t.Fatal("the skew cuts no entry at the window head")
	}
	opts := RepairOpts{Start: start, End: end, IntervalSec: m.IntervalSec}
	want, wantRep := RepairSummary(Window(log, start, end), opts, TrimFrac)
	if wantRep.Invalid == 0 || wantRep.Duplicates == 0 || wantRep.GapSamplesFilled == 0 {
		t.Fatalf("the window repairs nothing of each kind: %+v", wantRep)
	}

	for room := 0; room <= 1; room++ {
		// The repair takes its log over; each call gets a fresh copy.
		buf := Steps{W: make([]float64, raw.Len()), J: make([]Jump, len(raw.J), len(raw.J)+room)}
		repair := func() (Summary, RepairReport) {
			copy(buf.W, raw.W)
			copy(buf.J, raw.J)
			return m.RepairWindow(buf, start, end, TrimFrac)
		}
		if got, rep := repair(); got != want || rep != wantRep {
			t.Fatalf("room %d: RepairWindow %+v %+v, RepairSummary %+v %+v", room, got, rep, want, wantRep)
		}
		allocs := testing.AllocsPerRun(5, func() { repair() })
		if room == 0 && allocs != 1 {
			t.Errorf("with no room the clean list moved %.0f times, want once", allocs)
		}
		if room == 1 && allocs != 0 {
			t.Errorf("with one spare slot the repair allocates %.0f times, want 0", allocs)
		}
	}
}
