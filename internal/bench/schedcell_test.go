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
// ran, and neither allocates more than a handful of objects per run.
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
	// Both engines run on a runtime borrowed from the engine pool, so after
	// the warm-up neither builds queues, shadow stores or worker structures
	// per run, and the sharded engine's steady state is allocation-free
	// (pinned by the domore package's marginal allocs test): a run allocates
	// a handful of objects at most, and anything beyond that is a leak.
	const perRun = 16
	for _, c := range []*Cell{single, sharded} {
		if c.AllocsPerOp > perRun {
			t.Errorf("%s: %.0f allocations per run on a pooled runtime, want at most %d", c.ID, c.AllocsPerOp, perRun)
		}
	}
}
