package core

import (
	"context"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

// TestTraceSizeByKind: a frozen request trace of each kind the daemon
// stores holds at most 60% of the heap it held when every span was a
// 208-byte struct of pointers (the "was" values, Trace.Size of the same
// recordings then). The evaluations record a flight, as the daemon's do;
// the comparison records none.
func TestTraceSizeByKind(t *testing.T) {
	evaluate := func(profile *fault.Profile) func(context.Context) error {
		return func(ctx context.Context) error {
			opts := EvalOptions{Pool: sched.New(1, nil), Fault: profile, Flight: flight.NewRecorder(0)}
			_, err := EvaluateCtx(ctx, server.XeonE5462(), 1, opts)
			return err
		}
	}
	for _, tc := range []struct {
		name, route string
		spans, was  int
		run         func(context.Context) error
	}{
		// Measured: 11,568 B.
		{"evaluate", "/v1/evaluate", 83, 31152, evaluate(nil)},
		// Measured: 15,664 B.
		{"light evaluate", "/v1/evaluate", 103, 40784, evaluate(fault.Light())},
		// Measured: 2,032 B.
		{"green500", "/v1/green500", 9, 5472, func(ctx context.Context) error {
			opts := EvalOptions{Pool: sched.New(1, nil), Flight: flight.NewRecorder(0)}
			_, err := Green500Ctx(ctx, server.XeonE5462(), 1, opts)
			return err
		}},
		// Measured: 31,216 B.
		{"compare", "/v1/compare", 242, 89744, func(ctx context.Context) error {
			_, err := CompareCtx(ctx, server.All(), 1, EvalOptions{Pool: sched.New(1, nil)})
			return err
		}},
	} {
		tr := tracectx.New(tracectx.DeriveID(tc.name), tc.route, "serve")
		if err := tc.run(tracectx.ContextWith(context.Background(), tr.Root())); err != nil {
			t.Fatal(err)
		}
		tr.Freeze()
		size := tr.Size()
		t.Logf("%s: %d spans, %d B (was %d B, %.0f%%)", tc.name, tr.Len(), size, tc.was, 100*float64(size)/float64(tc.was))
		if tr.Len() != tc.spans {
			t.Errorf("%s: %d spans, want %d", tc.name, tr.Len(), tc.spans)
		}
		if limit := tc.was * 6 / 10; size > limit {
			t.Errorf("%s: trace holds %d B, want <= %d (60%% of %d)", tc.name, size, limit, tc.was)
		}
	}
}
