package bench

import (
	"strings"
	"testing"

	"crossinv/internal/runtime/adaptive"
)

// TestSeedKernelBehavior pins the mechanism the seed cells measure: the
// cold controller escalates to unbounded speculation and misspeculates on
// the hot-cell recurrence, while the statically seeded run speculates
// inside the proven distance bound and never rolls back. Both must still
// match the sequential result — seeding is a performance fact, never a
// correctness one.
func TestSeedKernelBehavior(t *testing.T) {
	seq := seedKernel()
	seq.RunSequential()
	want := seq.Checksum()

	run := func(static bool) adaptive.Stats {
		k := seedKernel()
		st := adaptive.Run(k, seedConfig(static, 4, nil))
		if got := k.Checksum(); got != want {
			t.Fatalf("static=%v checksum %x != sequential %x", static, got, want)
		}
		return st
	}

	cold := run(false)
	var coldMisspec, coldSpec int
	for _, s := range cold.Samples {
		if s.Engine == adaptive.EngineSpecCross {
			coldSpec++
			if s.Misspeculated {
				coldMisspec++
			}
		}
	}
	if coldSpec == 0 {
		t.Error("cold run never escalated to speculation; the manifest rate is not below SpecEnter")
	}
	if coldMisspec == 0 {
		t.Error("cold run never misspeculated; the cells have no structural gap to measure")
	}

	static := run(true)
	var staticSpec int
	for _, s := range static.Samples {
		if s.Misspeculated {
			t.Errorf("seeded run misspeculated in window [%d,%d); the proven bound %d did not gate it",
				s.StartEpoch, s.EndEpoch, seedMinDistance)
		}
		if s.Engine == adaptive.EngineSpecCross {
			staticSpec++
		}
	}
	if staticSpec == 0 {
		t.Error("seeded run never speculated; the bound made speculation unreachable")
	}
}

// TestSeedCellsPassMannWhitneyGate runs the two cells through the real
// harness. The seeded cell is expected to be faster — the misspeculation
// cost the cold run pays (whole-window rollback plus barrier re-execution,
// then policy backoff) is structural, and TestSeedKernelBehavior asserts
// that structure from Stats. The duration ratio and its Mann-Whitney p are
// logged, not asserted: wall times sampled inside a parallel `go test` do
// not resolve it on every host (ROADMAP item 1); performance claims are
// made with benchmark/run.sh.
func TestSeedCellsPassMannWhitneyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timed cells in -short mode")
	}
	res, err := Run(Options{
		N: 5, Warmup: 1, Workers: 4,
		Filter: func(id string) bool { return strings.HasPrefix(id, "adaptive/seed.") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	cold, static := res.Cell("adaptive/seed.cold"), res.Cell("adaptive/seed.static")
	if cold == nil || static == nil {
		t.Fatalf("cells missing from grid: %v", res.Cells)
	}
	t.Logf("cold median %.0fns / seeded median %.0fns = %.2fx, Mann-Whitney p = %.3f",
		cold.Median, static.Median, cold.Median/static.Median, MannWhitneyP(cold.Samples, static.Samples))
}
