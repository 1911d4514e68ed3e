// custom-server shows how to evaluate a machine that is not one of the
// paper's three: define a Spec, either calibrate it against your own
// measured operating points or rely on the generic power prior, and run
// the same five-state method.
package main

import (
	"context"
	"fmt"
	"log"

	"powerbench/internal/cache"
	"powerbench/internal/core"
	"powerbench/internal/server"
)

func main() {
	// A hypothetical dual-socket 8-core machine of the same era.
	spec := &server.Spec{
		Name:             "Custom-2x4",
		ProcessorType:    "Hypothetical 4-core x2",
		Cores:            8,
		Chips:            2,
		FreqMHz:          2400,
		GFLOPSPerCore:    9.6,
		MemoryBytes:      16 << 30,
		MemBWBytesPerSec: 12e9,
		L1D:              cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		L2:               cache.Config{Name: "L2", SizeBytes: 2 << 20, LineBytes: 64, Ways: 16},
		IdleWatts:        180,
	}
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}

	// Option 1: no measurements — the generic coefficient prior is used.
	ev, err := core.EvaluateCtx(context.Background(), spec, 9, core.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(core.EvaluationTable(ev, "Uncalibrated evaluation"))

	// Option 2: calibrate against measured operating points (here we
	// borrow plausible wattages; on real hardware these come from a meter).
	refs := []server.ReferencePoint{
		{Program: "ep.C", N: 1, Watts: 196},
		{Program: "ep.C", N: 4, Watts: 228},
		{Program: "ep.C", N: 8, Watts: 262},
		{Program: "HPL Mh", N: 1, Watts: 214},
		{Program: "HPL Mh", N: 4, Watts: 266},
		{Program: "HPL Mh", N: 8, Watts: 312},
		{Program: "HPL Mf", N: 1, Watts: 215},
		{Program: "HPL Mf", N: 4, Watts: 268},
		{Program: "HPL Mf", N: 8, Watts: 316},
	}
	if err := server.Calibrate(spec, refs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibration RMS error: %.2f W\n\n", server.CalibrationError(spec, refs))

	ev, err = core.EvaluateCtx(context.Background(), spec, 10, core.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(core.EvaluationTable(ev, "Calibrated evaluation"))
	fmt.Printf("score: %.4f GFLOPS/W\n", ev.Score)
}
