package bench

import (
	"fmt"

	"crossinv/internal/core"
	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/transform/mtcg"
)

// compiledProgram is the Fig 1.3 stencil (same text as
// examples/compiler/stencil.lnl), embedded so the harness has no
// working-directory dependency.
const compiledProgram = `
func stencil() {
  var A[256], B[257]

  parfor k = 0 .. 257 {
    B[k] = k * 31 % 97
  }

  for t = 0 .. 40 {
    parfor i = 0 .. 256 {
      A[i] = B[i] * 3 + B[i+1]
    }
    parfor j = 1 .. 257 {
      B[j] = A[j-1] % 1009 + t
    }
  }
}
`

// compiledSpecs builds the cells that track the IR executor and the two
// adapters that drive it, with everything up to execution (parse, analysis,
// DOMORE plan, §4.4 profile) done once outside the timed closures:
//
//	interp/seq                — the whole program on one reused environment:
//	  the executor alone, allocs/op 0;
//	compiled/stencil.domore   — core.RunDOMOREPlanned: mtcg's scheduler and
//	  worker sides over the executor;
//	compiled/stencil.speccross — core.RunSpecCrossProfiled: speccrossgen
//	  tasks with signature recording over the executor.
//
// The engine cells' allocs/op is per-run set-up (environments, queues,
// signatures); per-task and per-iteration allocation shows up as a multiple
// of the task count, which is what the column is there to catch.
func compiledSpecs(opts Options) []cellSpec {
	var (
		c      *core.Compiled
		region *ir.Loop
		par    *mtcg.Parallelized
		prof   speccross.ProfileResult
	)
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("bench compiled cell: %v", err))
		}
	}
	// setup compiles lazily, so listing cells stays free of work.
	setup := func() {
		if c != nil {
			return
		}
		var err error
		c, err = core.Compile(compiledProgram)
		must(err)
		region = c.Regions[len(c.Regions)-1]
		par, err = c.PlanDOMORE(region)
		must(err)
		prof, err = c.ProfileRegion(region, core.SignatureKind)
		must(err)
	}
	return []cellSpec{
		{
			id: "interp/seq", engine: "interp", workload: "stencil",
			prepare: func() func() {
				setup()
				env := interp.NewEnv(c.Prog)
				return func() { must(env.Exec(c.Prog.Body)) }
			},
		},
		{
			id: "compiled/stencil.domore", engine: "domore", workload: "stencil.lnl",
			prepare: func() func() {
				setup()
				return func() {
					_, err := c.RunDOMOREPlanned(par, region, domore.Options{Workers: opts.Workers})
					must(err)
				}
			},
		},
		{
			id: "compiled/stencil.speccross", engine: "speccross", workload: "stencil.lnl",
			prepare: func() func() {
				setup()
				return func() {
					_, err := c.RunSpecCrossProfiled(region, speccross.Config{Workers: opts.Workers}, prof)
					must(err)
				}
			},
		},
	}
}
