package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Level classifies an event.
type Level int8

const (
	// LevelReport is normal program output — the tables and result lines the
	// CLIs have always printed. Report events render verbatim (no prefix, no
	// timestamp) so default output stays byte-identical to the historical
	// fmt.Printf stream; -q suppresses them.
	LevelReport Level = iota
	// LevelInfo is progress narration, shown with -v.
	LevelInfo
	// LevelDebug is detail, shown with -vv.
	LevelDebug
)

func (l Level) String() string {
	switch l {
	case LevelReport:
		return "report"
	case LevelInfo:
		return "info"
	case LevelDebug:
		return "debug"
	}
	return fmt.Sprintf("level(%d)", int8(l))
}

// Event is one structured log record.
type Event struct {
	Seq   int       `json:"seq"`
	Wall  time.Time `json:"wall"`
	Level string    `json:"level"`
	Msg   string    `json:"msg"`
}

// Logger is a leveled event log. Report events go to out; info/debug
// diagnostics go to diag with a level prefix. Verbosity selects what is
// written: -1 (quiet) drops report lines, 0 is the historical default,
// 1 adds info, 2 adds debug. A logger built by NewLogger also retains every
// emitted event in memory (capped) so exporters can include the event
// history in JSON snapshots; CLI.NewObs keeps that history only when
// -metrics-out will export it. A nil Logger discards everything.
//
// A logger built by Hold writes nothing itself: it holds the events its
// parent would take, in order, until Release hands them to the parent.
type Logger struct {
	mu        sync.Mutex
	out, diag io.Writer
	verbosity int
	quiet     bool
	history   bool // retain events for Events
	seq       int
	events    []Event
	parent    *Logger
	held      []heldEvent
}

// heldEvent is one event a held logger keeps for its parent.
type heldEvent struct {
	level Level
	msg   string
}

// maxRetainedEvents caps the in-memory event history.
const maxRetainedEvents = 4096

// NewLogger returns a logger writing report lines to out and diagnostics to
// diag at the given verbosity, retaining its event history.
func NewLogger(out, diag io.Writer, verbosity int) *Logger {
	return &Logger{out: out, diag: diag, verbosity: verbosity, quiet: verbosity < 0, history: true}
}

// SetQuiet suppresses report output without changing the diagnostic level,
// so -q -v drops the tables while keeping the progress narration.
func (l *Logger) SetQuiet(quiet bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.quiet = quiet
}

func (l *Logger) record(level Level, msg string) {
	if l.retains() {
		l.seq++
		l.events = append(l.events, Event{Seq: l.seq, Wall: time.Now(), Level: level.String(), Msg: msg})
	}
}

// Reportf emits program output verbatim: the formatted string is written to
// out exactly as fmt.Printf would have written it (call sites keep their own
// newlines), unless the logger is quiet.
func (l *Logger) Reportf(format string, args ...any) {
	if l.wants(LevelReport) {
		l.emit(LevelReport, fmt.Sprintf(format, args...))
	}
}

func (l *Logger) diagf(level Level, format string, args ...any) {
	if l.wants(level) {
		l.emit(level, fmt.Sprintf(format, args...))
	}
}

// emit retains and writes one formatted event, or holds it for a held
// logger's parent.
func (l *Logger) emit(level Level, msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.parent != nil {
		l.held = append(l.held, heldEvent{level, msg})
		return
	}
	l.record(level, msg)
	if !l.writes(level) {
		return
	}
	if level == LevelReport {
		io.WriteString(l.out, msg)
	} else {
		fmt.Fprintf(l.diag, "%s: %s\n", level, msg)
	}
}

// Hold returns a logger that takes the events l would take but holds
// them, in the order they came, until Release passes them on to l. Work
// running concurrently narrates through one held logger each and is
// released in a fixed order, so its lines come out in that order however
// the work interleaved. A nil l holds nothing.
func (l *Logger) Hold() *Logger {
	if l == nil {
		return nil
	}
	return &Logger{parent: l}
}

// Release passes the held events on to the logger Hold was called on,
// which retains and writes them as if they were emitted now, and empties
// the hold. It does nothing on a logger Hold did not return.
func (l *Logger) Release() {
	if l == nil || l.parent == nil {
		return
	}
	l.mu.Lock()
	held := l.held
	l.held = nil
	l.mu.Unlock()
	for _, e := range held {
		l.parent.emit(e.level, e.msg)
	}
}

// wants reports whether an event at level would be retained or written.
// An event that would be neither is not formatted: without a history, or
// once it is full, unwritten info and debug events cost nothing. A nil
// logger wants nothing; a held logger wants what its parent wants.
func (l *Logger) wants(level Level) bool {
	if l == nil {
		return false
	}
	if l.parent != nil {
		return l.parent.wants(level)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.retains() || l.writes(level)
}

// retains reports whether the next event joins the history; the caller
// holds l.mu.
func (l *Logger) retains() bool {
	return l.history && len(l.events) < maxRetainedEvents
}

// writes reports whether an event at level is written; the caller holds
// l.mu.
func (l *Logger) writes(level Level) bool {
	if level == LevelReport {
		return !l.quiet && l.out != nil
	}
	return int(level) <= l.verbosity && l.diag != nil
}

// Infof emits a progress event (written with -v and above).
func (l *Logger) Infof(format string, args ...any) { l.diagf(LevelInfo, format, args...) }

// Debugf emits a detail event (written with -vv).
func (l *Logger) Debugf(format string, args ...any) { l.diagf(LevelDebug, format, args...) }

// Events returns a snapshot of the retained event history.
func (l *Logger) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}
