package core

import (
	"context"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

// maxTraceRecordingAllocs bounds what recording a request trace adds to a
// warm evaluation: the trace, its span, path and attr chunks and span index,
// and the contexts that carry spans, a few dozen allocations for the ~83
// spans of a Xeon-4870 evaluation.
const maxTraceRecordingAllocs = 60

// traceEvaluate returns an evaluation of spec with a flight recorder, under
// a fresh trace when traced.
func traceEvaluate(t *testing.T, spec *server.Spec, profile *fault.Profile, traced bool) func() {
	return func() {
		ctx := context.Background()
		if traced {
			tr := tracectx.New(tracectx.DeriveID("trace-allocs"), "POST /v1/evaluate", "serve")
			ctx = tracectx.ContextWith(ctx, tr.Root())
		}
		opts := EvalOptions{Pool: sched.New(1, nil), Fault: profile, Flight: flight.NewRecorder(0)}
		if _, err := EvaluateCtx(ctx, spec, 3, opts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTraceRecordingAllocs: tracing a warm Xeon-4870 evaluation costs at
// most maxTraceRecordingAllocs allocations more than not tracing it, pristine
// or hardened.
func TestTraceRecordingAllocs(t *testing.T) {
	spec := server.Xeon4870()
	for _, profile := range []*fault.Profile{nil, fault.Light()} {
		name := "pristine"
		if profile != nil {
			name = profile.Name
		}
		traceEvaluate(t, spec, profile, true)()
		untraced := testing.AllocsPerRun(5, traceEvaluate(t, spec, profile, false))
		traced := testing.AllocsPerRun(5, traceEvaluate(t, spec, profile, true))
		t.Logf("%s: %.0f allocs untraced, %.0f traced (+%.0f)", name, untraced, traced, traced-untraced)
		if traced-untraced > maxTraceRecordingAllocs {
			t.Errorf("%s: tracing adds %.0f allocs per evaluation, want <= %d", name, traced-untraced, maxTraceRecordingAllocs)
		}
	}
}

// spanCall matches a source line that opens a span or sets an attr.
var spanCall = regexp.MustCompile(`\.(Child|ChildCat|ChildJoin|ChildIndex|Attr|Str|Int|Float|Bool|SetVirtual)\(|traceSpan\(`)

// allocSites returns the allocation count of every stack in the memory
// profile.
func allocSites() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	sites := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		sites[r.Stack0] += r.AllocObjects
	}
	return sites
}

// TestUntracedEvaluateBuildsNoSpans: an untraced evaluation allocates
// nothing to name spans or box attrs. Every allocation made during it is
// sampled (MemProfileRate 1); none may come from tracectx or from a source
// line that opens a span or sets an attr.
func TestUntracedEvaluateBuildsNoSpans(t *testing.T) {
	spec := server.Xeon4870()
	evaluate := traceEvaluate(t, spec, fault.Light(), false)
	pristine := traceEvaluate(t, spec, nil, false)
	evaluate()
	pristine()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocSites()
	evaluate()
	pristine()
	after := allocSites()

	lines := map[string][]string{}
	source := func(file string, line int) string {
		src, ok := lines[file]
		if !ok {
			if b, err := os.ReadFile(file); err == nil {
				src = strings.Split(string(b), "\n")
			}
			lines[file] = src
		}
		if line < 1 || line > len(src) {
			return ""
		}
		return src[line-1]
	}
	checked := 0
	for stack, n := range after {
		if n <= before[stack] {
			continue
		}
		var pcs []uintptr
		for _, pc := range stack {
			if pc == 0 {
				break
			}
			pcs = append(pcs, pc)
		}
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "powerbench/internal/tracectx.") {
				t.Errorf("untraced evaluation allocates in %s (%s:%d)", f.Function, f.File, f.Line)
			}
			if !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "internal/") {
				// The allocating frame: the first outside the runtime.
				checked++
				if line := source(f.File, f.Line); spanCall.MatchString(line) {
					t.Errorf("untraced evaluation allocates %d times at %s:%d: %s", n-before[stack], f.File, f.Line, strings.TrimSpace(line))
				}
				break
			}
			if !more {
				break
			}
		}
	}
	if checked == 0 {
		t.Fatal("the memory profile sampled no allocations")
	}
}
