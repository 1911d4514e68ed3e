package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"powerbench/internal/tracectx"
)

// CLI bundles the observability command-line surface shared by the
// repository's binaries: the -metrics-out exporter path, the -v / -q
// verbosity pair and, on the one-shot tools, -trace-out. Register it on a
// FlagSet, build the run's Obs with NewObs once flags are parsed, open the
// run's trace with Trace, and Flush the exporter files when the run
// completes.
type CLI struct {
	MetricsOut string
	TraceOut   string
	Verbosity  int
	Quiet      bool

	// trace is the run's root trace, opened by Trace when TraceOut is set.
	trace *tracectx.Trace
}

// Register installs the telemetry flags shared by every binary on fs.
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot to this file")
	fs.BoolVar(&c.Quiet, "q", false, "suppress normal report output")
	fs.BoolFunc("v", "increase diagnostic verbosity (repeat for debug detail)", func(string) error {
		c.Verbosity++
		return nil
	})
}

// RegisterTraceOut installs -trace-out on fs. Only one-shot tools offer
// it: a daemon's traces are served per request by /v1/traces and exported
// with `powerbench trace export`.
func (c *CLI) RegisterTraceOut(fs *flag.FlagSet) {
	fs.StringVar(&c.TraceOut, "trace-out", "", "write a Chrome trace_event JSON file (chrome://tracing, Perfetto)")
}

// Trace opens the run's root trace when -trace-out is set and returns ctx
// carrying its root span, named root; without -trace-out ctx is returned
// unchanged and the run is untraced. The trace id derives from identity,
// which names what the run computes (never -jobs), so the exported tree
// and its tree_hash are the same at any worker count.
func (c *CLI) Trace(ctx context.Context, root, identity string) context.Context {
	if c.TraceOut == "" {
		return ctx
	}
	c.trace = tracectx.New(tracectx.DeriveID(identity), root, "cli")
	return tracectx.ContextWith(ctx, c.trace.Root())
}

// NewObs builds the run's telemetry from the parsed flags. Report output
// goes to stdout exactly as fmt.Print would (unless -q); Infof/Debugf
// diagnostics go to stderr under -v/-vv. The event history is kept only
// under -metrics-out, the one exporter that reads it, so a quiet run
// without it formats no event at all.
func (c *CLI) NewObs(stdout, stderr io.Writer) *Obs {
	log := NewLogger(stdout, stderr, c.Verbosity)
	log.SetQuiet(c.Quiet)
	log.history = c.MetricsOut != ""
	reg := NewRegistry()
	PublishBuildInfo(reg)
	return &Obs{
		Metrics: reg,
		Tracer:  NewTracer(),
		Log:     log,
	}
}

// Flush writes the requested exporter files, reporting failures to stderr:
// the metrics snapshot, and the trace opened by Trace as Chrome trace_event
// JSON (tracectx.WriteChrome). It returns a process exit code: 0 on
// success, 1 if any write failed.
func (c *CLI) Flush(o *Obs, stderr io.Writer) int {
	write := func(path string, fn func(io.Writer) error) int {
		if path == "" {
			return 0
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		werr := fn(f)
		cerr := f.Close()
		if werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "%s: %v\n", path, werr)
			return 1
		}
		return 0
	}
	if rc := write(c.MetricsOut, func(w io.Writer) error { return WriteJSON(w, o) }); rc != 0 {
		return rc
	}
	if c.trace == nil {
		return 0
	}
	c.trace.Root().End()
	return write(c.TraceOut, func(w io.Writer) error { return tracectx.WriteChrome(w, c.trace.Export()) })
}
