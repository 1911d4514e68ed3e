// powermodel reproduces the paper's §VI experiment end to end: train the
// multiple-linear-regression power model on the HPCC suite (seven programs
// from one core to full cores, PMU sampled every 10 s), print Tables VII
// and VIII, verify against the NPB classes B and C, and report the R²
// similarity scores with the per-program residuals of Figs. 12-13.
package main

import (
	"context"
	"fmt"
	"log"

	"powerbench/internal/core"
	"powerbench/internal/npb"
	"powerbench/internal/server"
)

func main() {
	spec := server.Xeon4870()
	fmt.Printf("Training the power model on %s (7 HPCC programs x %d core counts)...\n\n",
		spec.Name, spec.Cores)

	tr, err := core.TrainCtx(context.Background(), spec, 3, core.TrainOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(core.Table7(tr))
	fmt.Println()
	fmt.Println(core.Table8(tr))
	fmt.Println()

	for _, class := range []npb.Class{npb.ClassB, npb.ClassC} {
		v, err := core.VerifyPowerModel(spec, tr, class, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("NPB class %s verification: %d runs, R² = %.4f (paper: %s)\n",
			class, len(v.Points), v.R2,
			map[npb.Class]string{npb.ClassB: "0.634", npb.ClassC: "0.543"}[class])

		// Per-program mean absolute difference, worst first — EP and SP
		// fit worst, as the paper reports.
		fmt.Print("  |measured - regression| by program (worst first): ")
		for _, r := range v.ByProgram() {
			fmt.Printf("%s=%.2f ", r.Program, r.MeanAbsDiff)
		}
		fmt.Println()
	}
}
