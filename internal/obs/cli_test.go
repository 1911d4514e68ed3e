package obs

import (
	"bytes"
	"io"
	"testing"
)

// A quiet CLI Obs without -metrics-out keeps no event history, so it
// wants no info or debug line and formats none of their arguments.
func TestCLIObsWithoutMetricsOutKeepsNoHistory(t *testing.T) {
	var out, diag bytes.Buffer
	o := (&CLI{Quiet: true}).NewObs(&out, &diag)
	if o.Wants(LevelInfo) || o.Wants(LevelDebug) {
		t.Error("a quiet Obs without -metrics-out wants info or debug events")
	}
	var n int
	for i := 0; i < 10; i++ {
		o.Infof("info %v", formatted{&n})
		o.Debugf("debug %v", formatted{&n})
		o.Log.Reportf("report %v\n", formatted{&n})
	}
	if n != 0 {
		t.Errorf("%d arguments formatted, want 0", n)
	}
	if evs := o.Log.Events(); len(evs) != 0 {
		t.Errorf("%d events retained, want 0", len(evs))
	}
	if out.Len() != 0 || diag.Len() != 0 {
		t.Errorf("quiet Obs wrote %q to stdout and %q to stderr", out.String(), diag.String())
	}
}

// Verbosity without -metrics-out writes what it always wrote and still
// retains nothing.
func TestCLIObsVerboseWritesWithoutHistory(t *testing.T) {
	var out, diag bytes.Buffer
	o := (&CLI{Quiet: true, Verbosity: 1}).NewObs(&out, &diag)
	o.Infof("evaluating %s", "Xeon-E5462")
	o.Debugf("not at -v")
	if got, want := diag.String(), "info: evaluating Xeon-E5462\n"; got != want {
		t.Errorf("stderr = %q, want %q", got, want)
	}
	if evs := o.Log.Events(); len(evs) != 0 {
		t.Errorf("%d events retained, want 0", len(evs))
	}
}

// With -metrics-out set the snapshot still lists every event, quiet or
// not.
func TestCLIObsWithMetricsOutExportsEvents(t *testing.T) {
	o := (&CLI{Quiet: true, MetricsOut: "metrics.json"}).NewObs(io.Discard, io.Discard)
	if !o.Wants(LevelDebug) {
		t.Error("an Obs whose history -metrics-out exports does not want debug events")
	}
	o.Log.Reportf("table\n")
	o.Infof("evaluating %s", "Xeon-4870")
	o.Debugf("state %s", "idle")
	var b bytes.Buffer
	if err := WriteJSON(&b, o); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseSnapshot(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Seq: 1, Level: "report", Msg: "table\n"},
		{Seq: 2, Level: "info", Msg: "evaluating Xeon-4870"},
		{Seq: 3, Level: "debug", Msg: "state idle"},
	}
	if len(snap.Events) != len(want) {
		t.Fatalf("snapshot lists %d events, want %d: %+v", len(snap.Events), len(want), snap.Events)
	}
	for i, w := range want {
		if g := snap.Events[i]; g.Seq != w.Seq || g.Level != w.Level || g.Msg != w.Msg {
			t.Errorf("event %d = %+v, want %+v", i, g, w)
		}
	}
}
