package interp_test

import (
	"testing"

	"crossinv/internal/ir/interp"
)

// benchProgram is the Fig 1.3 stencil (examples/compiler/stencil.lnl): loads,
// stores, scalar reads and induction updates in the proportions compiled
// regions execute them.
const benchProgram = `func stencil() {
  var A[256], B[257]
  parfor k = 0 .. 257 { B[k] = k * 31 % 97 }
  for t = 0 .. 40 {
    parfor i = 0 .. 256 { A[i] = B[i] * 3 + B[i+1] }
    parfor j = 1 .. 257 { B[j] = A[j-1] % 1009 + t }
  }
}`

// BenchmarkExec reports the executor's cost per interpreted instruction and
// its allocations per whole-program run on a reused environment (0: the
// instruction, loop and access paths allocate nothing). The sink variant
// adds the per-access interface call speculative tasks pay.
func BenchmarkExec(b *testing.B) {
	p, ok := compile(benchProgram)
	if !ok {
		b.Fatal("benchmark program rejected")
	}
	for _, bc := range []struct {
		name string
		sink interp.Sink
	}{{"plain", nil}, {"sink", &countingSink{}}} {
		b.Run(bc.name, func(b *testing.B) {
			env := interp.NewEnv(p)
			env.Sink = bc.sink
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.Exec(p.Body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(env.Steps), "ns/instr")
		})
	}
}

type countingSink struct{ reads, writes uint64 }

func (c *countingSink) Read(uint64)  { c.reads++ }
func (c *countingSink) Write(uint64) { c.writes++ }
