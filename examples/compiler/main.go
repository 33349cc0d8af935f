// Compiler: run loop-nest-language programs through the full automatic
// parallelization pipeline — parse → lower → dependence analysis → region
// detection → DOMORE partition/slice/MTCG and SPECCROSS region generation —
// and execute each strategy through core.Run, checking the results against
// sequential execution; any mismatch exits non-zero. This is the end-to-end path the crossinv CLI drives; the two
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
	fmt.Printf("%-15s checksum %016x\n", "sequential", want)

	plan := core.Plan{Facts: c.Facts()[len(c.Regions)-1]}
	for _, engine := range []string{"barrier", "domore", "speccross", "adaptive", "auto"} {
		res, err := c.Run(region, plan, core.Options{Engine: engine, Workers: 4})
		if err != nil {
			fmt.Printf("%-15s inapplicable: %v\n", engine, err)
			continue
		}
		mustMatch(engine, res.Env.Checksum(), want)
		label := engine
		if res.Engine != engine {
			label += ":" + res.Engine
		}
		fmt.Printf("%-15s checksum %016x ✔%s\n", label, res.Env.Checksum(), detail(res))
	}
}

// detail notes what the engine that ran found out about the region.
func detail(res core.Result) string {
	switch {
	case res.DOMORE != nil:
		return fmt.Sprintf("  (%d sync conditions at runtime)", res.DOMORE.Stats.SyncConditions)
	case res.SpecCross != nil:
		return fmt.Sprintf("  (profiled min distance %s)", distString(res.SpecCross.Profile.MinDistance))
	case res.Adaptive != nil:
		return fmt.Sprintf("  (%d windows, %d switches)", res.Adaptive.Stats.Windows, res.Adaptive.Stats.Switches)
	}
	return ""
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
