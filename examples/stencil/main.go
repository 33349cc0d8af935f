// Stencil: profile a Jacobi-style sweep — the workload class Fig 5.2(e)
// evaluates — for its minimum dependence distance, then run it under
// SPECCROSS with that distance and check the result against sequential.
//
// Run with: go run ./examples/stencil
package main

import (
	"fmt"
	"log"

	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads/jacobi"
)

func main() {
	// Real concurrent execution: correctness first.
	golden := jacobi.New(1)
	golden.RunSequential()
	want := golden.Checksum()

	// Profile to bound speculation (§4.4): the stencil's row dependences
	// sit about one invocation apart.
	prof := speccross.Profile(jacobi.New(1), signature.Exact, 6)
	fmt.Printf("profiled min dependence distance: %d tasks\n", prof.MinDistance)

	k := jacobi.New(1)
	dist, profitable := prof.Recommended(4)
	if !profitable {
		log.Fatal("unexpected: jacobi should be profitable to speculate")
	}
	stats := speccross.Run(k, speccross.Config{
		Workers: 4, CheckpointEvery: 250, SpecDistance: dist,
	})
	if k.Checksum() != want {
		log.Fatalf("speccross checksum %x != sequential %x", k.Checksum(), want)
	}
	fmt.Printf("speccross: %d tasks, %d epochs speculated, %d inline, %d misspeculations — matches sequential ✔\n",
		stats.Tasks, stats.Epochs, stats.Inline, stats.Misspeculations)

}
