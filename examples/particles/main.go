// Particles: the FLUIDANIMATE case study (§5.4) as a runnable program.
// One smoothed-particle-hydrodynamics simulation is executed four ways —
// sequentially, with barriers between the eight frame phases, with the
// hand-style DOANY (per-cell locks), and speculatively with per-loop
// profiled ranges — and all four must agree bit for bit.
//
// Run with: go run ./examples/particles
package main

import (
	"fmt"
	"log"

	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads/fluidanimate"
)

func main() {
	golden := fluidanimate.New(1)
	golden.RunSequential()
	want := golden.Checksum()
	fmt.Printf("sequential     checksum %016x\n", want)

	// Barrier-parallelized frame loop: eight barriers per frame.
	fb := fluidanimate.New(1)
	bar := speccross.RunBarriers(fb, 4)
	idle, waits := bar.Stats()
	check("barrier", fb.Checksum(), want)
	fmt.Printf("barrier        checksum %016x  (%d waits, %v idle)\n", fb.Checksum(), waits, idle)

	// The manual PARSEC plan: pair-once interactions under per-cell locks.
	fm := fluidanimate.New(1)
	fm.RunManualDOANY(4)
	check("manual DOANY", fm.Checksum(), want)
	fmt.Printf("manual DOANY   checksum %016x\n", fm.Checksum())

	// SPECCROSS with per-loop speculative ranges: phases whose profiled
	// distance is large overlap freely; the tight ones gate (§5.4 explains
	// why fluidanimate needs exactly this).
	prof := speccross.Profile(fluidanimate.New(1), signature.Exact, 4)
	fmt.Printf("profiled per-loop distances: %v\n", prof.PerLoop)
	fs := fluidanimate.New(1)
	stats := speccross.Run(fs, speccross.Config{
		Workers: 4, CheckpointEvery: 64, SigKind: signature.Exact,
		SpecDistanceOf: prof.PerEpoch(fs),
	})
	check("speccross", fs.Checksum(), want)
	fmt.Printf("speccross      checksum %016x  (%d tasks, %d epochs speculated, %d inline, %d misspeculations)\n",
		fs.Checksum(), stats.Tasks, stats.Epochs, stats.Inline, stats.Misspeculations)

	fmt.Println("all strategies agree ✔")
}

func check(name string, got, want uint64) {
	if got != want {
		log.Fatalf("%s checksum %x != sequential %x", name, got, want)
	}
}
