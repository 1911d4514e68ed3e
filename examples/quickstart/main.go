// Quickstart: evaluate one server with the paper's method in a dozen
// lines — build a calibrated server, run the five-state HPL+EP plan, and
// print the PPW table and score.
package main

import (
	"context"
	"fmt"
	"log"

	"powerbench/internal/core"
	"powerbench/internal/server"
)

func main() {
	// The three servers of the paper are built-in and come calibrated
	// against its published measurements.
	spec := server.XeonE5462()

	// EvaluateCtx runs idle, NPB-EP class C and HPL (half/full memory) at
	// one/half/full cores on the simulated meter, then applies the paper's
	// analysis pipeline (merge logs, window per program, trim 10%, average).
	// The zero EvalOptions is the pristine, sequential, untraced method.
	ev, err := core.EvaluateCtx(context.Background(), spec, 1 /* simulation seed */, core.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(core.EvaluationTable(ev, "Power evaluation"))
	fmt.Printf("Final score (mean PPW over the ten states): %.4f GFLOPS/W\n", ev.Score)
}
