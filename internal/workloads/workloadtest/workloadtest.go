// Package workloadtest is the shared per-workload test harness: every
// benchmark package asserts, in its own directory, that each applicable
// engine — barrier, DOMORE, SPECCROSS, and the adaptive hybrid — reproduces
// the sequential checksum. Keeping one equivalence harness avoids nine
// drifting copies of the golden-run/engine-run comparison, and keeps the
// race-detector shrinking rule (see Make) in one place.
package workloadtest

import (
	"testing"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/cg"
	"crossinv/internal/workloads/epochal"
	"crossinv/internal/workloads/fluidanimate"
)

// Make builds an instance at scale 1, shrinking the region (never its
// structure) under the race detector so the 10–20× slowdown keeps suites
// within timeouts; see internal/raceflag. Golden and parallel instances get
// the same shrink, so equivalence checks stay exact.
func Make(e workloads.Entry) workloads.Instance {
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

// EnginesMatchSequential runs the named benchmark under every engine its
// registry entry declares applicable and fails if any parallel checksum
// diverges from the sequential one. SPECCROSS (and the adaptive runtime's
// speculative windows) are gated with the §4.4 profiled distance when the
// profile calls speculation profitable; otherwise the speculative paths fall
// back to non-speculative execution, which also keeps the harness exact
// under the race detector (conflicts inside the speculative range race by
// design).
func EnginesMatchSequential(t *testing.T, name string) {
	t.Helper()
	e, err := workloads.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	golden := Make(e)
	golden.RunSequential()
	want := golden.Checksum()

	check := func(t *testing.T, inst workloads.Instance, engine string) {
		t.Helper()
		if got := inst.Checksum(); got != want {
			t.Fatalf("%s checksum %x != sequential %x", engine, got, want)
		}
	}
	kind := signature.Range
	if e.Exact {
		kind = signature.Exact
	}
	profiled := func() (int64, bool) {
		pr := speccross.Profile(Make(e).(speccross.Workload), kind, 8)
		return pr.Recommended(4)
	}

	if e.SpecOK {
		t.Run("barrier", func(t *testing.T) {
			inst := Make(e)
			rec := trace.NewRecorder()
			bar := speccross.RunBarriersTraced(inst.(speccross.Workload), 4, rec)
			check(t, inst, "barrier")
			sum := rec.Summary()
			if _, waits := bar.Stats(); sum.Counts[trace.KindBarrierWaitBegin] != waits {
				t.Errorf("trace barrier waits %d != barrier Stats waits %d",
					sum.Counts[trace.KindBarrierWaitBegin], waits)
			}
			assertEq(t, "iter begin/end", sum.Counts[trace.KindIterStart], sum.Counts[trace.KindIterEnd])
		})
	}
	if e.DomoreOK {
		t.Run("domore", func(t *testing.T) {
			inst := Make(e)
			rec := trace.NewRecorder()
			stats := domore.RunParallel(inst.(domore.Workload), domore.Options{Workers: 4, Trace: rec})
			if stats.Iterations == 0 {
				t.Fatal("no iterations scheduled")
			}
			check(t, inst, "domore")
			// Every DOMORE Stats counter must be re-derivable from the exact
			// per-kind trace counts — the recorder is the same information,
			// observed at the emission sites.
			sum := rec.Summary()
			assertEq(t, "iterations", sum.Counts[trace.KindSchedule], stats.Iterations)
			assertEq(t, "dispatches", sum.Counts[trace.KindDispatch], stats.Dispatches)
			assertEq(t, "sync conditions", sum.Counts[trace.KindSyncCond], stats.SyncConditions)
			assertEq(t, "stalls", sum.Counts[trace.KindStallBegin], stats.Stalls)
			assertEq(t, "addr checks", sum.Sums[trace.KindAddrCheck], stats.AddrChecks)
			if stats.Batches <= 0 || stats.Batches > stats.Dispatches {
				t.Errorf("%d run records for %d dispatches; want some, and at most one each", stats.Batches, stats.Dispatches)
			}
		})
	}
	if e.DomoreOK {
		t.Run("domore-sharded", func(t *testing.T) {
			// The lane count the benchmark's domore-sharded rows pass changes
			// nothing, and the scheduler's round-robin test seam schedules,
			// checks and dispatches what DOMORE's assignment does and finds
			// the same dependences; only where iterations go differs.
			ref := Make(e)
			want := domore.RunParallel(ref.(domore.Workload), domore.Options{Workers: 4, Lanes: 3})
			check(t, ref, "domore (reference)")

			inst := Make(e)
			rec := trace.NewRecorder()
			stats := domore.RunParallel(roundRobin{inst.(domore.Workload)}, domore.Options{Workers: 4, Lanes: 3, Trace: rec})
			if stats.Iterations == 0 {
				t.Fatal("no iterations scheduled")
			}
			check(t, inst, "domore round-robin")
			assertEq(t, "iterations vs default", stats.Iterations, want.Iterations)
			assertEq(t, "dispatches vs default", stats.Dispatches, want.Dispatches)
			assertEq(t, "dependences vs default", stats.Dependences, want.Dependences)
			assertEq(t, "addr checks vs default", stats.AddrChecks, want.AddrChecks)
			assertEq(t, "run records", stats.Batches, stats.Dispatches)
			sum := rec.Summary()
			assertEq(t, "iterations", sum.Counts[trace.KindSchedule], stats.Iterations)
			assertEq(t, "dispatches", sum.Counts[trace.KindDispatch], stats.Dispatches)
			assertEq(t, "sync conditions", sum.Counts[trace.KindSyncCond], stats.SyncConditions)
			assertEq(t, "stalls", sum.Counts[trace.KindStallBegin], stats.Stalls)
			assertEq(t, "addr checks", sum.Sums[trace.KindAddrCheck], stats.AddrChecks)
		})
	}
	if e.DomoreOK {
		t.Run("domore-guarded", func(t *testing.T) {
			// domore.Run probes the region inline first and goes parallel
			// only if the scheduler can win. Whatever it decides, every
			// iteration runs once: inline or scheduled, and the trace says
			// which.
			inst := Make(e)
			rec := trace.NewRecorder()
			stats := domore.Run(inst.(domore.Workload), domore.Options{Workers: 4, Trace: rec})
			check(t, inst, "guarded domore")
			ref := Make(e)
			total := domore.RunParallel(ref.(domore.Workload), domore.Options{Workers: 4}).Iterations
			sum := rec.Summary()
			assertEq(t, "iterations", stats.Iterations, total)
			assertEq(t, "inline + dispatched", stats.Inline+stats.Dispatches, total)
			assertEq(t, "scheduled", sum.Counts[trace.KindSchedule], total-stats.Inline)
			assertEq(t, "inline events", sum.Counts[trace.KindInline], 1)
			assertEq(t, "inline iterations", sum.Sums[trace.KindInline], stats.Inline)
			t.Logf("%d of %d iterations inline (%.1f ns/iteration inline, %.1f scheduler)", stats.Inline, total, stats.InlineNs, stats.SchedNs)
		})
	}
	if e.SpecOK {
		t.Run("speccross", func(t *testing.T) {
			inst := Make(e)
			sw := inst.(speccross.Workload)
			cfg := speccross.Config{Workers: 4, CheckpointEvery: 200, SigKind: kind}
			if dist, ok := profiled(); ok {
				cfg.SpecDistance = dist
				rec := trace.NewRecorder()
				cfg.Trace = rec
				stats := speccross.RunParallel(sw, cfg)
				if stats.Misspeculations != 0 {
					t.Errorf("misspeculations = %d with profiled gating, want 0", stats.Misspeculations)
				}
				sum := rec.Summary()
				assertEq(t, "tasks", sum.Counts[trace.KindTaskEnd], stats.Tasks)
				assertEq(t, "epochs", sum.Sums[trace.KindEpochCommit], stats.Epochs)
				assertEq(t, "check requests", sum.Counts[trace.KindCheckRequest], stats.CheckRequests)
				assertEq(t, "comparisons", sum.Counts[trace.KindSigCheck], stats.Comparisons)
				assertEq(t, "misspeculations", sum.Counts[trace.KindMisspec], stats.Misspeculations)
				assertEq(t, "checkpoints", sum.Counts[trace.KindCheckpoint], stats.Checkpoints)
				assertEq(t, "re-executed epochs", sum.Sums[trace.KindRecoveryEnd], stats.ReexecutedEpochs)
				assertEq(t, "range stalls", sum.Counts[trace.KindRangeStallBegin], stats.RangeStalls)
			} else {
				speccross.RunBarriers(sw, cfg.Workers)
			}
			check(t, inst, "speccross")
		})
		t.Run("speccross-guarded", func(t *testing.T) {
			// speccross.Run probes the region inline first and speculates
			// only if a lower bound on speculation's cost beats it, and
			// stops once a segment does not. Whatever it decides, every
			// epoch is committed speculatively, re-executed or run inline,
			// and the trace says how many inline.
			inst := Make(e)
			sw := inst.(speccross.Workload)
			rec := trace.NewRecorder()
			cfg := speccross.Config{Workers: 4, CheckpointEvery: 200, SigKind: kind, Trace: rec}
			if dist, ok := profiled(); ok {
				cfg.SpecDistance = dist
			} else if raceflag.Enabled {
				t.Skip("unprofitable speculation misspeculates, which races by design")
			}
			stats := speccross.Run(sw, cfg)
			check(t, inst, "guarded speccross")
			epochs := int64(sw.Epochs())
			tasks := int64(0)
			for ep := 0; ep < sw.Epochs(); ep++ {
				tasks += int64(sw.Tasks(ep))
			}
			assertEq(t, "committed + re-executed + inline epochs", stats.Epochs+stats.ReexecutedEpochs+stats.Inline, epochs)
			if stats.Misspeculations == 0 {
				assertEq(t, "tasks", stats.Tasks, tasks)
			}
			sum := rec.Summary()
			assertEq(t, "inline events", sum.Counts[trace.KindInline], 1)
			assertEq(t, "inline epochs", sum.Sums[trace.KindInline], stats.Inline)
			assertEq(t, "epochs", sum.Sums[trace.KindEpochCommit], stats.Epochs)
			assertEq(t, "misspeculations", sum.Counts[trace.KindMisspec], stats.Misspeculations)
			t.Logf("%d of %d epochs inline (%.1f ns/task inline, %.1f speculative)", stats.Inline, epochs, stats.InlineNs, stats.SpecNs)
		})
	}
	if e.DomoreOK && e.SpecOK {
		t.Run("adaptive", func(t *testing.T) {
			inst := Make(e)
			aw, ok := inst.(adaptive.Workload)
			if !ok {
				t.Fatalf("%s is marked for both engines but is not an adaptive.Workload", name)
			}
			rec := trace.NewRecorder()
			cfg := adaptive.Config{Workers: 4, Trace: rec}
			// The speculative windows must use the workload's signature
			// scheme: Range summaries on an Exact workload conflict
			// constantly and every window would misspeculate.
			cfg.Spec.SigKind = kind
			if dist, ok := profiled(); ok {
				cfg.Spec.SpecDistance = dist
			} else if raceflag.Enabled {
				// Unprofitable speculation would misspeculate — by design a
				// data race — so pin the policy to DOMORE under the detector.
				cfg.Policy = adaptive.Fixed(adaptive.EngineDomore)
			}
			stats := adaptive.Run(aw, cfg)
			if stats.Windows == 0 {
				t.Fatal("no windows executed")
			}
			check(t, inst, "adaptive")
			sum := rec.Summary()
			assertEq(t, "windows", sum.Counts[trace.KindWindowBegin], int64(stats.Windows))
			assertEq(t, "switches", sum.Counts[trace.KindEngineSwitch], int64(stats.Switches))
		})
	}
}

// assertEq compares a trace-derived counter against the engine's own Stats
// field — the contract that lets the observability layer replace ad-hoc
// counters.
// roundRobin marks a workload for DOMORE's round-robin test seam: iteration
// i goes to worker i mod Workers, one run record each.
type roundRobin struct{ domore.Workload }

func (roundRobin) RoundRobin() bool { return true }

func assertEq(t *testing.T, what string, fromTrace, fromStats int64) {
	t.Helper()
	if fromTrace != fromStats {
		t.Errorf("trace-derived %s = %d, engine Stats = %d", what, fromTrace, fromStats)
	}
}
