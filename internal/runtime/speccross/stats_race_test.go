package speccross

import (
	"testing"

	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/signature"
)

// TestStatsCountersRace is the regression for the Stats concurrency
// contract (see the Stats doc comment): worker threads count RangeStalls,
// and the checker shards PrefilterChecks, CheckRequests and
// Comparisons, in plain thread-private counters that the control goroutine
// folds into Stats at every segment's quiesce, next to its own
// segment-boundary counters. The workload's epochs are fully disjoint so the
// execution is data-race-free by construction, and an injected
// misspeculation drives the rollback/re-execution counters without
// introducing a real conflict. `go test -race` flags a counter that a thread
// writes while control reads it, or that two threads share; a plain run pins
// the totals, and the second run on the same runtime pins that the fold
// zeroes what it folded (six segments and a recovery share each counter).
func TestStatsCountersRace(t *testing.T) {
	rt := engine.New(4)
	defer rt.Close()
	for run := 0; run < 2; run++ {
		statsCountersRun(t, rt)
	}
}

func statsCountersRun(t *testing.T, rt *engine.Runtime) {
	g := newGrid(60, 8, 4, 8*4) // shift = tasks*blockSize: disjoint epochs
	want := g.sequential()
	stats := RunOn(rt, g, Config{
		Workers:           4,
		CheckpointEvery:   10,
		SpecDistance:      7, // exercise the RangeStalls counter too
		ForceMisspecEpoch: 25,
	})
	checkResult(t, g, want)

	if stats.Misspeculations != 1 {
		t.Fatalf("Misspeculations = %d, want the 1 injected", stats.Misspeculations)
	}
	if stats.ReexecutedEpochs != 10 {
		t.Fatalf("ReexecutedEpochs = %d, want the injected segment's 10", stats.ReexecutedEpochs)
	}
	// Tasks counts the 50 committed epochs' tasks, not the aborted
	// segment's partial attempt.
	if stats.Tasks != 50*8 {
		t.Fatalf("Tasks = %d, want the committed epochs' %d", stats.Tasks, 50*8)
	}
	if stats.Epochs < 50 {
		t.Fatalf("Epochs = %d, want >= 50 speculative epochs", stats.Epochs)
	}
	if stats.Checkpoints == 0 {
		t.Fatal("no checkpoints recorded")
	}
	// The grid's epochs occupy disjoint address ranges, so the union
	// pre-filter screens out every candidate row before the precise scan:
	// PrefilterChecks must run, Comparisons legitimately may not.
	if stats.CheckRequests == 0 || stats.PrefilterChecks == 0 {
		t.Fatal("checker counters untouched; the shards' counters were not folded")
	}
}

// transposedWorkload writes cell task*epochs + epoch per task: every cell is
// distinct (no real dependences), but a worker's per-epoch write envelope
// spans almost the whole array, so Range union pre-filters alias across
// epochs and the checker must fall through to the precise per-task scan —
// which then exonerates every pair. This pins the Comparisons counter (and
// its -race discipline) now that the pre-filter hides it from
// disjoint-envelope workloads.
type transposedWorkload struct {
	epochs, tasks int
	data          []int64
}

func (w *transposedWorkload) Epochs() int   { return w.epochs }
func (w *transposedWorkload) Tasks(int) int { return w.tasks }
func (w *transposedWorkload) StateLen() int { return len(w.data) }

func (w *transposedWorkload) LoadCells(lo uint64, dst []int64)           { copy(dst, w.data[lo:]) }
func (w *transposedWorkload) StoreCells(lo uint64, src []int64)          { copy(w.data[lo:], src) }
func (w *transposedWorkload) CellMap() func(addr uint64) (lo, hi uint64) { return nil }
func (w *transposedWorkload) cell(e, t int) int {
	return t*w.epochs + e
}

func (w *transposedWorkload) Run(epoch, task, tid int, sig *signature.Signature) {
	a := w.cell(epoch, task)
	if sig != nil {
		sig.Write(uint64(a))
	}
	w.data[a] = int64(epoch*w.tasks + task + 1)
}

func TestPrefilterAliasFallsThroughToPreciseScan(t *testing.T) {
	w := &transposedWorkload{epochs: 40, tasks: 8}
	w.data = make([]int64, w.tasks*w.epochs)
	stats := RunParallel(w, Config{Workers: 4, CheckpointEvery: 10})
	for e := 0; e < w.epochs; e++ {
		for task := 0; task < w.tasks; task++ {
			if got, want := w.data[w.cell(e, task)], int64(e*w.tasks+task+1); got != want {
				t.Fatalf("cell(%d,%d) = %d, want %d", e, task, got, want)
			}
		}
	}
	if stats.Misspeculations != 0 {
		t.Fatalf("Misspeculations = %d, want 0 (all cells distinct)", stats.Misspeculations)
	}
	if stats.Comparisons == 0 {
		t.Fatal("Comparisons = 0; the transposed layout should alias the union pre-filter and force precise scans")
	}
	if stats.PrefilterChecks == 0 {
		t.Fatal("PrefilterChecks = 0; every precise scan is gated by a pre-filter test")
	}
}
