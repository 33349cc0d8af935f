// Compiler: run loop-nest-language programs through the full automatic
// parallelization pipeline — parse → lower → dependence analysis → region
// detection → DOMORE partition/slice/MTCG and SPECCROSS region generation —
// and execute each strategy, checking the results against sequential
// execution. This is the end-to-end path the crossinv CLI drives; the two
// .lnl files next to this program are the Fig 1.3 stencil and the Fig 3.1
// CG nest.
//
// Run with: go run ./examples/compiler
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"

	"crossinv/internal/core"
	"crossinv/internal/ir"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
)

func main() {
	dir := exampleDir()
	for _, file := range []string{"stencil.lnl", "cg.lnl"} {
		src, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", file)
		run(string(src))
		fmt.Println()
	}
}

func run(src string) {
	c, err := core.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	region := c.Regions[len(c.Regions)-1]
	fmt.Print(c.Report(region))

	seq, err := c.RunSequential()
	if err != nil {
		log.Fatal(err)
	}
	want := seq.Checksum()
	fmt.Printf("sequential  checksum %016x\n", want)

	if res, err := c.RunBarriers(region, 4); err != nil {
		fmt.Printf("barrier     inapplicable: %v\n", err)
	} else {
		mustMatch("barrier", res.Env.Checksum(), want)
		fmt.Printf("barrier     checksum %016x ✔\n", res.Env.Checksum())
	}

	if res, err := runDOMORE(c, region); err != nil {
		fmt.Printf("domore      inapplicable: %v\n", err)
	} else {
		mustMatch("domore", res.Env.Checksum(), want)
		fmt.Printf("domore      checksum %016x ✔  (%d sync conditions at runtime)\n",
			res.Env.Checksum(), res.Stats.SyncConditions)
	}

	if res, err := runSpecCross(c, region); err != nil {
		fmt.Printf("speccross   inapplicable: %v\n", err)
	} else {
		mustMatch("speccross", res.Env.Checksum(), want)
		fmt.Printf("speccross   checksum %016x ✔  (profiled min distance %s)\n",
			res.Env.Checksum(), distString(res.Profile.MinDistance))
	}
}

// runDOMORE builds and verifies the region's DOMORE plan (partition →
// computeAddr slice → MTCG), then runs it on the DOMORE runtime.
func runDOMORE(c *core.Compiled, region *ir.Loop) (*core.DomoreResult, error) {
	par, err := c.PlanDOMORE(region)
	if err != nil {
		return nil, err
	}
	return c.RunDOMOREPlanned(par, region, domore.Options{Workers: 4})
}

// runSpecCross profiles the region (§4.4) and runs it under SPECCROSS with
// the speculative range the profile recommends.
func runSpecCross(c *core.Compiled, region *ir.Loop) (*core.SpecCrossResult, error) {
	cfg := speccross.Config{Workers: 4, CheckpointEvery: 20}
	prof, err := c.ProfileRegion(region, cfg.SigKind)
	if err != nil {
		return nil, err
	}
	return c.RunSpecCrossProfiled(region, cfg, prof)
}

func distString(d int64) string {
	if d == speccross.NoConflict {
		return "* (no conflicts)"
	}
	return fmt.Sprintf("%d", d)
}

func mustMatch(name string, got, want uint64) {
	if got != want {
		log.Fatalf("%s checksum %x != sequential %x", name, got, want)
	}
}

// exampleDir locates this example's directory so the .lnl files resolve
// regardless of the working directory `go run` was invoked from.
func exampleDir() string {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	return filepath.Dir(self)
}
