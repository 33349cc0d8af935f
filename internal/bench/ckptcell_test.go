package bench

import (
	"strings"
	"testing"
)

// TestCkptCellsGate runs the checkpoint-substitution cells: on the isolated
// checkpoint-cost workload, incremental checkpoints are expected to beat
// full snapshots. The cell is built so the only difference between the two
// runs is the checkpoint mode; the full mode copies the 64k-cell state at
// every 4-epoch boundary while the incremental mode refreshes ~32 tracked
// cells. What the test asserts is what repeats on every host: the grid
// validates, both cells ran, and the allocation column is live. The
// duration ratio and its Mann-Whitney p are logged, not asserted — five
// sub-second samples inside a parallel `go test` do not resolve it (ROADMAP
// item 1); performance claims are made with benchmark/run.sh.
func TestCkptCellsGate(t *testing.T) {
	res, err := Run(Options{
		N: 5, Warmup: 1, Workers: 4,
		Filter: func(id string) bool { return strings.HasPrefix(id, "speccross/ckpt.") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	full, inc := res.Cell("speccross/ckpt.full"), res.Cell("speccross/ckpt.incremental")
	if full == nil || inc == nil {
		t.Fatalf("checkpoint cells missing from grid: %+v", res.Cells)
	}
	t.Logf("full median %.0fns / incremental median %.0fns = %.2fx, Mann-Whitney p = %.3f",
		full.Median, inc.Median, full.Median/inc.Median, MannWhitneyP(full.Samples, inc.Samples))
	// The allocs column must be live for engine cells: a speccross run
	// allocates signatures, checkpoints, and worker structures.
	for _, c := range []*Cell{full, inc} {
		if c.AllocsPerOp <= 0 {
			t.Errorf("%s: AllocsPerOp = %v, want > 0", c.ID, c.AllocsPerOp)
		}
	}
}

// TestCompareAllocRegressionGate pins the allocs/op gate: allocation
// growth past old×1.25+64 must fail the comparison even when wall time is
// unchanged, and files predating the column (allocs 0) must never flag.
func TestCompareAllocRegressionGate(t *testing.T) {
	old := fixture(baseSamples)
	cur := fixture(baseSamples)
	old.Cell("domore/CG").AllocsPerOp = 1000
	cur.Cell("domore/CG").AllocsPerOp = 2000

	cr := Compare(old, cur, CompareOptions{})
	if cr.AllocRegressions != 1 {
		t.Fatalf("AllocRegressions = %d, want 1", cr.AllocRegressions)
	}
	if !cr.Failed() {
		t.Fatal("doubled allocs/op did not gate")
	}
	var sb strings.Builder
	if err := cr.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ALLOCS") {
		t.Errorf("table does not mark the alloc regression:\n%s", sb.String())
	}

	// Within threshold: 20% growth plus slack stays quiet.
	cur.Cell("domore/CG").AllocsPerOp = 1200
	if cr := Compare(old, cur, CompareOptions{}); cr.AllocRegressions != 0 || cr.Failed() {
		t.Errorf("20%% alloc growth flagged: %d regressions", cr.AllocRegressions)
	}

	// Old file predates the column: no gate regardless of new counts.
	old.Cell("domore/CG").AllocsPerOp = 0
	cur.Cell("domore/CG").AllocsPerOp = 1 << 20
	if cr := Compare(old, cur, CompareOptions{}); cr.AllocRegressions != 0 {
		t.Errorf("pre-column old file flagged %d alloc regressions", cr.AllocRegressions)
	}
}
