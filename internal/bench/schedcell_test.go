package bench

import (
	"runtime"
	"strings"
	"testing"

	"crossinv/internal/raceflag"
)

// TestSchedCellsGate runs the sharded-scheduler cells: the isolated
// scheduler-bound workload at 8 workers under the flat and the sharded
// scheduler. The cells differ only in the scheduler (same workload, same
// worker count), so on a host with real cores the gap is the detection
// split across lanes plus the batched condition publication. What the test
// asserts is what repeats on every host — the grid validates, both cells
// ran, and the sharded engine's allocations stay in the flat one's regime.
// The duration ratio and its Mann-Whitney p are logged, not asserted: the
// ratio needs idle cores that a parallel `go test` on a 1–2 CPU box does not
// have (ROADMAP item 1); performance claims are made with benchmark/run.sh.
func TestSchedCellsGate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	res, err := Run(Options{
		N: 5, Warmup: 1, Workers: 8,
		Filter: func(id string) bool { return strings.HasPrefix(id, "domore/sched.") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	single, sharded := res.Cell("domore/sched.single"), res.Cell("domore/sched.sharded")
	if single == nil || sharded == nil {
		t.Fatalf("scheduler cells missing from grid: %+v", res.Cells)
	}
	t.Logf("single median %.0fns / sharded median %.0fns = %.2fx on %d CPUs, Mann-Whitney p = %.3f",
		single.Median, sharded.Median, single.Median/sharded.Median, runtime.GOMAXPROCS(0),
		MannWhitneyP(single.Samples, sharded.Samples))
	// The allocs column must be live: both engines build queues, shadow
	// stores, and worker structures per run. The sharded engine's per-run
	// setup must stay in the same regime as the flat one's — its steady
	// state is allocation-free (pinned by the domore package's marginal
	// allocs test), so anything beyond setup growth here is a leak.
	for _, c := range []*Cell{single, sharded} {
		if c.AllocsPerOp <= 0 {
			t.Errorf("%s: AllocsPerOp = %v, want > 0", c.ID, c.AllocsPerOp)
		}
	}
	if sharded.AllocsPerOp > 50*single.AllocsPerOp {
		t.Errorf("sharded allocs/op %.0f vs single %.0f: sharded steady state should not allocate",
			sharded.AllocsPerOp, single.AllocsPerOp)
	}
}
