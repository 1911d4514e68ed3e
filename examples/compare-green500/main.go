// compare-green500 reproduces the paper's §V-C3 comparison: evaluate the
// three servers under the proposed method, the Green500 method (PPW at HPL
// peak) and SPECpower, and show how the rankings differ — the paper's
// motivating observation that "the peak condition does not represent the
// overall performance or power characteristics".
package main

import (
	"context"
	"fmt"
	"log"

	"powerbench/internal/core"
	"powerbench/internal/server"
)

func main() {
	specs := server.All()
	c, err := core.CompareCtx(context.Background(), specs, 42, core.EvalOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Server          Ours (mean PPW)  Green500 (PPW@peak)  SPECpower (ssj_ops/W)")
	fmt.Println("--------------  ---------------  -------------------  ---------------------")
	for i, name := range c.Servers {
		fmt.Printf("%-14s  %15.4f  %19.4f  %21.1f\n", name, c.Ours[i], c.Green500[i], c.SPECpower[i])
	}
	fmt.Println()
	fmt.Println("Rankings (best first):")
	fmt.Printf("  proposed method: %v\n", core.Ranking(c.Servers, c.Ours))
	fmt.Printf("  Green500:        %v\n", core.Ranking(c.Servers, c.Green500))
	fmt.Printf("  SPECpower:       %v\n", core.Ranking(c.Servers, c.SPECpower))
	fmt.Println()
	fmt.Println("Paper-printed scores for the proposed method:")
	for _, name := range c.Servers {
		fmt.Printf("  %-14s %.4f\n", name, core.PaperScores[name])
	}
	fmt.Println("(The Xeon-E5462 printed score is 10x its own table's mean PPW;")
	fmt.Println(" with the consistent formula the top two servers swap. See EXPERIMENTS.md.)")
}
