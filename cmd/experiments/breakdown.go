package main

import (
	"fmt"
	"time"

	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/workloads"
)

// breakdown runs two real engine executions with event tracing enabled and
// reports where the time went: the stall/queue breakdown of a DOMORE run
// (the overhead Fig 3.3's gap is made of) and the check/recovery breakdown
// of a SPECCROSS run with one injected misspeculation (the rollback cost
// Fig 5.3 trades against checkpoint frequency). The counters come from the
// exact trace Summary; the durations from the trace-derived histograms.
func breakdown() {
	header("Engine time breakdown (trace-derived)")
	breakdownDomore("CG")
	breakdownSpec("LOOPDEP")
}

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func breakdownDomore(name string) {
	e, err := workloads.Find(name)
	if err != nil {
		panic(err)
	}
	inst := e.Make(*scale)
	rec := trace.NewRecorder()
	start := time.Now()
	stats := domore.Run(inst.(domore.Workload), domore.Options{Workers: 4, Trace: rec})
	wall := time.Since(start)

	sum := rec.Summary()
	g := rec.Metrics()
	busy := g.TotalDuration("iteration.ns")
	stalled := g.TotalDuration("stall.ns")
	queueWait := g.TotalDuration("queue-empty.ns") + g.TotalDuration("queue-full.ns")
	fmt.Printf("\n%s under DOMORE (4 workers + scheduler, wall %v)\n", name, wall.Round(time.Microsecond))
	fmt.Printf("  iterations %d, dispatches %d, sync conditions %d, dependences %d (manifest rate %.1f%%)\n",
		stats.Iterations, stats.Dispatches, stats.SyncConditions, stats.Dependences,
		100*float64(stats.Dependences)/float64(max64(stats.Iterations, 1)))
	fmt.Printf("  worker time:   busy %10v (%5.1f%% of wall x workers)\n", busy.Round(time.Microsecond), pct(busy, 4*wall))
	fmt.Printf("  stall time:    %d stalls, %10v (%5.1f%%)\n",
		sum.Counts[trace.KindStallBegin], stalled.Round(time.Microsecond), pct(stalled, 4*wall))
	fmt.Printf("  queue waiting: %10v (%5.1f%%)\n", queueWait.Round(time.Microsecond), pct(queueWait, 4*wall))
}

func breakdownSpec(name string) {
	e, err := workloads.Find(name)
	if err != nil {
		panic(err)
	}
	inst := e.Make(*scale)
	rec := trace.NewRecorder()
	start := time.Now()
	// SpecDistance bounds the comparison window the same way the profiled
	// distance would (unbounded speculation makes the checker's pairwise
	// comparisons quadratic in segment size, drowning the breakdown).
	stats := speccross.Run(inst.(speccross.Workload), speccross.Config{
		Workers: 4, CheckpointEvery: 100, ForceMisspecEpoch: 2,
		SpecDistance: 512, Trace: rec,
	})
	wall := time.Since(start)

	sum := rec.Summary()
	g := rec.Metrics()
	taskTime := g.TotalDuration("task.ns")
	recovery := g.TotalDuration("recovery.ns")
	fmt.Printf("\n%s under SPECCROSS (4 workers + checker, wall %v, 1 injected misspeculation)\n",
		name, wall.Round(time.Microsecond))
	fmt.Printf("  tasks %d, epochs committed %d, re-executed %d\n",
		stats.Tasks, stats.Epochs, stats.ReexecutedEpochs)
	fmt.Printf("  checker: %d signature comparisons, %d non-empty check requests\n",
		sum.Counts[trace.KindSigCheck], sum.Counts[trace.KindCheckRequest])
	fmt.Printf("  speculative task time: %10v (%5.1f%% of wall x workers)\n",
		taskTime.Round(time.Microsecond), pct(taskTime, 4*wall))
	fmt.Printf("  misspeculations %d, recovery time %v (%5.1f%% of wall), checkpoints %d\n",
		sum.Counts[trace.KindMisspec], recovery.Round(time.Microsecond), pct(recovery, wall),
		sum.Counts[trace.KindCheckpoint])
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
