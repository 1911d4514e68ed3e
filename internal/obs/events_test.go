package obs

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// oracleLogger is the event log as it was before unkept events went
// unformatted: every event is formatted, then retained while the history
// has room and written at the logger's verbosity.
type oracleLogger struct {
	out, diag io.Writer
	verbosity int
	events    []Event
}

func (l *oracleLogger) emit(level Level, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(l.events) < maxRetainedEvents {
		l.events = append(l.events, Event{Seq: len(l.events) + 1, Level: level.String(), Msg: msg})
	}
	switch {
	case level == LevelReport && l.verbosity >= 0 && l.out != nil:
		io.WriteString(l.out, msg)
	case level != LevelReport && int(level) <= l.verbosity && l.diag != nil:
		fmt.Fprintf(l.diag, "%s: %s\n", level, msg)
	}
}

// formatted counts the times it is formatted.
type formatted struct{ n *int }

func (f formatted) String() string { *f.n++; return "x" }

// A run that crosses the history cap retains and writes what it did before,
// and stops formatting the events it neither retains nor writes.
func TestLoggerSkipsUnkeptEvents(t *testing.T) {
	for _, verbosity := range []int{-1, 0, 1, 2} {
		var out, diag, oout, odiag bytes.Buffer
		l := NewLogger(&out, &diag, verbosity)
		o := &oracleLogger{out: &oout, diag: &odiag, verbosity: verbosity}
		var n, on int
		const events = maxRetainedEvents + 300
		for i := 0; i < events; i++ {
			level := Level(i % 3)
			format := "event %d %v\n"
			switch level {
			case LevelReport:
				l.Reportf(format, i, formatted{&n})
			case LevelInfo:
				l.Infof(format, i, formatted{&n})
			case LevelDebug:
				l.Debugf(format, i, formatted{&n})
			}
			o.emit(level, format, i, formatted{&on})
		}
		if out.String() != oout.String() || diag.String() != odiag.String() {
			t.Fatalf("verbosity %d: written bytes differ from the oracle", verbosity)
		}
		got := l.Events()
		if len(got) != len(o.events) {
			t.Fatalf("verbosity %d: %d events retained, oracle %d", verbosity, len(got), len(o.events))
		}
		for i := range got {
			g, w := got[i], o.events[i]
			if g.Seq != w.Seq || g.Level != w.Level || g.Msg != w.Msg {
				t.Fatalf("verbosity %d: event %d = %+v, oracle %+v", verbosity, i, g, w)
			}
		}
		// Past the cap only written events are formatted: reports unless
		// quiet, info from verbosity 1, debug from 2.
		written := 0
		for i := maxRetainedEvents; i < events; i++ {
			if level := Level(i % 3); (level == LevelReport && verbosity >= 0) || (level != LevelReport && int(level) <= verbosity) {
				written++
			}
		}
		if want := maxRetainedEvents + written; n != want {
			t.Errorf("verbosity %d: %d events formatted, want %d", verbosity, n, want)
		}
		if on != events {
			t.Fatalf("oracle formatted %d events, want %d", on, events)
		}
	}
}

// Held loggers write and retain nothing until released; released in a
// fixed order, their events reach the parent in that order whatever order
// they were emitted in, and a hold formats only what the parent takes.
func TestLoggerHoldReleasesInOrder(t *testing.T) {
	var out, diag bytes.Buffer
	parent := NewLogger(&out, &diag, 1)
	a, b := parent.Hold(), parent.Hold()
	b.Infof("b one")
	a.Reportf("a report\n")
	a.Infof("a one")
	n := 0
	b.Debugf("b debug %v", formatted{&n})
	if out.Len() != 0 || diag.Len() != 0 || len(parent.Events()) != 0 {
		t.Fatalf("held events leaked before release: out %q diag %q events %v", out.String(), diag.String(), parent.Events())
	}
	a.Release()
	b.Release()
	b.Release()
	if got, want := diag.String(), "info: a one\ninfo: b one\n"; got != want {
		t.Errorf("diag = %q, want %q", got, want)
	}
	if out.String() != "a report\n" {
		t.Errorf("out = %q", out.String())
	}
	var msgs []string
	for _, e := range parent.Events() {
		msgs = append(msgs, e.Level+" "+e.Msg)
	}
	if got := fmt.Sprint(msgs); got != "[report a report\n info a one info b one debug b debug x]" {
		t.Errorf("events = %q", got)
	}
	if n != 1 {
		t.Errorf("debug argument formatted %d times, want 1 (the parent retains history)", n)
	}
	var nilLogger *Logger
	if nilLogger.Hold() != nil {
		t.Error("nil logger's hold is not nil")
	}
}
