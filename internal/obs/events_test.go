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
