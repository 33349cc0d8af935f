package workloads_test

import (
	"testing"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/cg"
	"crossinv/internal/workloads/epochal"
	"crossinv/internal/workloads/fluidanimate"

	_ "crossinv/internal/workloads/blackscholes"
	_ "crossinv/internal/workloads/eclat"
	_ "crossinv/internal/workloads/equake"
	_ "crossinv/internal/workloads/fdtd"
	_ "crossinv/internal/workloads/jacobi"
	_ "crossinv/internal/workloads/llubench"
	_ "crossinv/internal/workloads/loopdep"
	_ "crossinv/internal/workloads/phased"
	_ "crossinv/internal/workloads/symm"
)

// mk builds an instance, shrinking it under the race detector so the
// 10–20× slowdown keeps the suite within timeouts. The shrink truncates the
// region (fewer invocations), never its structure, and is applied to golden
// and parallel instances alike so equivalence checks stay exact.
func mk(e workloads.Entry) workloads.Instance {
	inst := e.Make(1)
	if !raceflag.Enabled {
		return inst
	}
	switch w := inst.(type) {
	case *epochal.Kernel:
		if w.NumEpochs > 120 {
			w.NumEpochs = 120
		}
	case *cg.CG:
		if w.Invs > 120 {
			w.Invs = 120
		}
	case *fluidanimate.Fluid:
		if w.Frames > 10 {
			w.Frames = 10
		}
	}
	return inst
}

func TestRegistryComplete(t *testing.T) {
	want := map[string]bool{
		"CG": true, "JACOBI": true, "FDTD": true, "SYMM": true,
		"LOOPDEP": true, "EQUAKE": true, "LLUBENCH": true,
		"FLUIDANIMATE": true, "BLACKSCHOLES": true, "ECLAT": true,
		"PHASED": true,
	}
	got := map[string]bool{}
	for _, e := range workloads.All() {
		got[e.Name] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("benchmark %s missing from registry", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(got), len(want))
	}
	if _, err := workloads.Find("CG"); err != nil {
		t.Fatal(err)
	}
	if _, err := workloads.Find("nope"); err == nil {
		t.Fatal("Find of unknown benchmark must fail")
	}
}

func TestSequentialDeterminism(t *testing.T) {
	for _, e := range workloads.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			a := mk(e)
			b := mk(e)
			a.RunSequential()
			b.RunSequential()
			if a.Checksum() != b.Checksum() {
				t.Fatalf("two identical instances diverged")
			}
		})
	}
}

func TestBarrierExecutionMatchesSequential(t *testing.T) {
	for _, e := range workloads.All() {
		if !e.SpecOK {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			golden := mk(e)
			golden.RunSequential()
			want := golden.Checksum()

			inst := mk(e)
			sw := inst.(speccross.Workload)
			speccross.RunBarriers(sw, 4)
			if got := inst.Checksum(); got != want {
				t.Fatalf("barrier checksum %x != sequential %x", got, want)
			}
		})
	}
}

func TestSpecCrossExecutionMatchesSequential(t *testing.T) {
	for _, e := range workloads.All() {
		if !e.SpecOK {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			golden := mk(e)
			golden.RunSequential()
			want := golden.Checksum()

			inst := mk(e)
			sw := inst.(speccross.Workload)
			kind := signature.Range
			if e.Exact {
				kind = signature.Exact
			}
			// Profile a scratch copy to configure the speculative range the
			// way the real pipeline does (§4.4).
			prof := mk(e).(speccross.Workload)
			pr := speccross.Profile(prof, kind, 8)
			cfg := speccross.Config{Workers: 4, CheckpointEvery: 200, SigKind: kind}
			if dist, profitable := pr.Recommended(cfg.Workers); profitable {
				cfg.SpecDistance = dist
				stats := speccross.RunParallel(sw, cfg)
				if stats.Misspeculations != 0 {
					t.Errorf("misspeculations = %d with profiled gating, want 0", stats.Misspeculations)
				}
			} else {
				speccross.RunBarriers(sw, cfg.Workers)
			}
			if got := inst.Checksum(); got != want {
				t.Fatalf("speccross checksum %x != sequential %x", got, want)
			}
		})
	}
}

func TestDomoreExecutionMatchesSequential(t *testing.T) {
	for _, e := range workloads.All() {
		if !e.DomoreOK {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			golden := mk(e)
			golden.RunSequential()
			want := golden.Checksum()

			inst := mk(e)
			dw, ok := inst.(domore.Workload)
			if !ok {
				t.Fatalf("%s marked DomoreOK but lacks the adapter", e.Name)
			}
			stats := domore.Run(dw, domore.Options{Workers: 4})
			if got := inst.Checksum(); got != want {
				t.Fatalf("domore checksum %x != sequential %x", got, want)
			}
			if stats.Iterations == 0 {
				t.Fatal("no iterations scheduled")
			}
		})
	}
}

func TestProfileDistancesMatchTable53(t *testing.T) {
	// Table 5.3's training-input minimum dependence distances, adjusted to
	// this port's synthetic structures (see EXPERIMENTS.md): LOOPDEP's
	// rotation gives exactly 2 epochs = 490; CG's shifted reuse gives less
	// than one epoch's worth of tasks.
	cases := []struct {
		name string
		lo   int64
		hi   int64
	}{
		{"LOOPDEP", 490, 490},
		{"CG", 24, 27}, // lag·TasksPerEpoch − shift
		{"JACOBI", 90, 100},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			e, err := workloads.Find(c.name)
			if err != nil {
				t.Fatal(err)
			}
			inst := mk(e).(speccross.Workload)
			pr := speccross.Profile(inst, signature.Range, 8)
			if pr.MinDistance < c.lo || pr.MinDistance > c.hi {
				t.Fatalf("MinDistance = %d, want in [%d,%d]", pr.MinDistance, c.lo, c.hi)
			}
		})
	}
}

func TestLLUBenchNoConflicts(t *testing.T) {
	// Table 5.3 records no observed runtime conflicts for LLUBENCH: the
	// lists are disjoint and same-list accesses stay on one thread.
	e, err := workloads.Find("LLUBENCH")
	if err != nil {
		t.Fatal(err)
	}
	inst := mk(e).(speccross.Workload)
	stats := speccross.RunParallel(inst, speccross.Config{Workers: 4, CheckpointEvery: 500})
	if stats.Misspeculations != 0 {
		t.Fatalf("LLUBENCH misspeculated %d times; lists are disjoint", stats.Misspeculations)
	}
}
