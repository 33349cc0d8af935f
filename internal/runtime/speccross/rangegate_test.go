package speccross

import (
	"fmt"
	"testing"
	"time"

	"crossinv/internal/runtime/signature"
)

// runGated runs a conflict-free grid (every epoch writes its own blocks, so
// no misspeculation can end the segment early) under the range gate and
// fails the test if Run has not returned within the deadline: the gate is a
// spin loop, so a livelock would otherwise hang the whole test binary.
func runGated(t *testing.T, epochs, tasks, workers int, dist int64) {
	t.Helper()
	const blockSize = 2
	g := newGrid(epochs, tasks, blockSize, tasks*blockSize)
	want := g.sequential()
	finished := make(chan Stats, 1)
	go func() {
		finished <- Run(g, Config{Workers: workers, CheckpointEvery: 100, SpecDistance: dist})
	}()
	select {
	case stats := <-finished:
		checkResult(t, g, want)
		if stats.Misspeculations != 0 || stats.Tasks != int64(epochs*tasks) {
			t.Errorf("stats = %+v, want %d tasks and no misspeculation", stats, epochs*tasks)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("speccross.Run(%d epochs x %d tasks, workers %d, distance %d) did not return: range gate livelocked",
			epochs, tasks, workers, dist)
	}
}

// TestRangeGateDoesNotLivelock is the reproduction of the gate comparing
// against each worker's last completed task: with 3 tasks per epoch dealt
// round-robin to 2 workers, worker 0 reaches global task 3 needing worker 1
// to have completed task 2, and worker 1 reaches task 4 needing worker 0 to
// have completed task 3 — but task 2 is worker 0's own and task 3 is the one
// it is waiting to start. Distance == workers is what Recommended returns as
// profitable, so the daemon could reach this.
func TestRangeGateDoesNotLivelock(t *testing.T) {
	runGated(t, 4, 3, 2, 2)
}

// TestRangeGateTerminatesOverGrid sweeps small shapes around the livelock:
// any task count, worker count and distance must terminate with the
// sequential result, including distances below the worker count (the gate
// then serializes, but may not stop).
func TestRangeGateTerminatesOverGrid(t *testing.T) {
	for tasks := 1; tasks <= 5; tasks++ {
		for workers := 1; workers <= 4; workers++ {
			for dist := int64(1); dist <= 5; dist++ {
				ok := t.Run(fmt.Sprintf("tasks%d_workers%d_dist%d", tasks, workers, dist), func(t *testing.T) {
					runGated(t, 4, tasks, workers, dist)
				})
				if !ok {
					return // a livelocked shape leaves spinning workers behind; do not pile up more
				}
			}
		}
	}
}

// TestRangeGateAtProfiledDistanceNeverMisspeculates: gated at the profiled
// minimum distance, every conflicting pair is ordered, and the checker must
// see it that way too — the frontier a stalled worker publishes lets others
// start tasks that conflict with its completed ones, so its published
// position has to be past those as well, or the checker reports an overlap
// that never happened (a false rollback, not a wrong result).
func TestRangeGateAtProfiledDistanceNeverMisspeculates(t *testing.T) {
	// Task t of epoch e+1 overlaps task t+1 of epoch e, which round-robin
	// places on the other worker: cross-thread conflicts 3 tasks apart.
	prof := Profile(newGrid(24, 4, 2, 2), signature.Range, 0)
	dist, profitable := prof.Recommended(2)
	if dist != 3 || !profitable {
		t.Fatalf("profiled distance %d profitable %v, want 3 and true", dist, profitable)
	}
	for i := 0; i < 40; i++ {
		g := newGrid(24, 4, 2, 2)
		want := g.sequential()
		stats := Run(g, Config{Workers: 2, CheckpointEvery: 100, SpecDistance: dist})
		checkResult(t, g, want)
		if stats.Misspeculations != 0 {
			t.Fatalf("run %d: %d misspeculations under a faithful profile (range stalls %d)", i, stats.Misspeculations, stats.RangeStalls)
		}
	}
}
