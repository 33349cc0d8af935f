package speccross

import (
	"runtime"
	"sync/atomic"
	"testing"

	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/trace"
)

// recoveryWorkload forces a signature conflict in chosen checkpoint
// segments deterministically: in a conflict pair (epochs a, a+1), the
// task (a, 0) records a sentinel address and then spins until task
// (a+1, 1) — on the other worker, since tasks are assigned t = tid mod
// workers — has recorded the same sentinel and raised a flag. The two
// tasks therefore provably overlap in time with intersecting write sets,
// so the checker must detect the conflict; during barrier re-execution
// (sig == nil) neither the sentinel nor the spin happens, so recovery
// terminates deterministically.
type recoveryWorkload struct {
	state []int64 // one private cell per (epoch, task)
	flags []atomic.Bool
	// pairOf[e] is the conflict-pair index started at epoch e, or -1.
	pairOf []int
}

const recoverySentinel = uint64(1) << 40

// newRecoveryWorkload builds 6 epochs × 2 tasks with conflict pairs at
// epochs (2,3) and (4,5): with CheckpointEvery=2 the segments are [0,2)
// [2,4) [4,6), so the first segment commits and the next two abort
// back-to-back.
func newRecoveryWorkload() *recoveryWorkload {
	w := &recoveryWorkload{
		state:  make([]int64, 12),
		flags:  make([]atomic.Bool, 2),
		pairOf: []int{-1, -1, 0, -1, 1, -1},
	}
	return w
}

func (w *recoveryWorkload) Epochs() int         { return len(w.pairOf) }
func (w *recoveryWorkload) Tasks(epoch int) int { return 2 }

// The cell image with element-granular addresses (the sentinel lies
// outside [0, StateLen) and is ignored by the checkpointer, exercising the
// out-of-range skip).
func (w *recoveryWorkload) StateLen() int                              { return len(w.state) }
func (w *recoveryWorkload) LoadCells(lo uint64, dst []int64)           { copy(dst, w.state[lo:]) }
func (w *recoveryWorkload) StoreCells(lo uint64, src []int64)          { copy(w.state[lo:], src) }
func (w *recoveryWorkload) CellMap() func(addr uint64) (lo, hi uint64) { return IdentityCells }

func (w *recoveryWorkload) Run(e, t, tid int, sig *signature.Signature) {
	if sig != nil {
		if pair := w.pairOf[e]; pair >= 0 && t == 0 {
			// Conflict-pair opener: log the sentinel, then hold the task
			// open until the closer has logged it too. The budget bounds
			// the spin if the engine semantics ever change; the flag makes
			// the normal path deterministic.
			sig.Write(recoverySentinel)
			for i := 0; i < 1<<24 && !w.flags[pair].Load(); i++ {
				runtime.Gosched()
			}
		}
		if e > 0 && w.pairOf[e-1] >= 0 && t == 1 {
			sig.Write(recoverySentinel)
			w.flags[w.pairOf[e-1]].Store(true)
		}
		// Record-before-write for the owned cell (the CellMap contract).
		sig.Write(uint64(e*2 + t))
	}
	// Each task owns one cell, so tasks never race and the final state
	// must match the sequential replay exactly.
	w.state[e*2+t] += int64(e*31 + t*7 + 1)
}

// sequentialRecoveryState replays the workload's memory effects serially.
func sequentialRecoveryState() []int64 {
	state := make([]int64, 12)
	for e := 0; e < 6; e++ {
		for t := 0; t < 2; t++ {
			state[e*2+t] += int64(e*31 + t*7 + 1)
		}
	}
	return state
}

// TestRecoveryDeterministicConflicts pins the exact recovery accounting
// under forced conflicts with back-to-back segment aborts: the engine
// must misspeculate exactly once per poisoned segment, re-execute exactly
// those segments' epochs, and leave memory identical to the sequential
// result. Any drift in these counts means the recovery path changed
// behaviour, not just performance.
func TestRecoveryDeterministicConflicts(t *testing.T) {
	// The exact same recovery accounting must hold with no cell map, where
	// every rollback rewrites the full image, and with one, where it
	// rewrites the write set's dirty cells.
	for _, mode := range []string{"full", "incremental"} {
		t.Run(mode, func(t *testing.T) {
			w := newRecoveryWorkload()
			var view Workload = w
			if mode == "full" {
				view = noMap{w}
			}
			rec := trace.NewRecorder()
			stats := RunParallel(view, Config{
				Workers:         2,
				SigKind:         signature.Exact,
				CheckpointEvery: 2,
				Trace:           rec,
			})

			if stats.Misspeculations != 2 {
				t.Errorf("Misspeculations = %d, want exactly 2 (one per poisoned segment)", stats.Misspeculations)
			}
			if stats.ReexecutedEpochs != 4 {
				t.Errorf("ReexecutedEpochs = %d, want exactly 4 (segments [2,4) and [4,6))", stats.ReexecutedEpochs)
			}
			if stats.Epochs != 2 {
				t.Errorf("speculatively committed Epochs = %d, want exactly 2 (segment [0,2))", stats.Epochs)
			}
			if stats.Checkpoints != 3 {
				t.Errorf("Checkpoints = %d, want exactly 3 (one per segment end)", stats.Checkpoints)
			}
			wantDelta := int64(1) // only segment [0,2) commits
			if mode == "full" {
				wantDelta = 0 // a commit with no cell map leaves the image to be captured again
			}
			if stats.DeltaCheckpoints != wantDelta {
				t.Errorf("DeltaCheckpoints = %d, want %d", stats.DeltaCheckpoints, wantDelta)
			}

			sum := rec.Summary()
			if got := sum.Counts[trace.KindMisspec]; got != 2 {
				t.Errorf("trace misspec events = %d, want 2", got)
			}
			if got := sum.Counts[trace.KindRecoveryBegin]; got != 2 {
				t.Errorf("trace recovery spans = %d, want 2", got)
			}
			if got := sum.Sums[trace.KindRecoveryEnd]; got != stats.ReexecutedEpochs {
				t.Errorf("trace re-executed epochs = %d, engine Stats = %d", got, stats.ReexecutedEpochs)
			}
			if got := sum.Counts[trace.KindRestore]; got != 2 {
				t.Errorf("trace restore events = %d, want 2", got)
			}
			// Each segment [2,4) and [4,6) owns four cells; with no cell map
			// a rollback rewrites all twelve.
			wantCells := int64(2 * 4)
			if mode == "full" {
				wantCells = 2 * int64(len(w.state))
			}
			if got := sum.Sums[trace.KindRestore]; got != wantCells {
				t.Errorf("trace restored cells = %d, want %d", got, wantCells)
			}

			want := sequentialRecoveryState()
			for i := range want {
				if w.state[i] != want[i] {
					t.Errorf("state[%d] = %d after recovery, sequential = %d", i, w.state[i], want[i])
				}
			}
		})
	}
}

// TestRecoveryInjectedMisspec pins the same accounting under the engine's
// own fault-injection knob (Config.ForceMisspecEpoch), with no workload
// cooperation at all: exactly one injected misspeculation, exactly one
// segment re-executed.
func TestRecoveryInjectedMisspec(t *testing.T) {
	w := newRecoveryWorkload()
	w.pairOf = []int{-1, -1, -1, -1, -1, -1} // no real conflicts
	stats := Run(w, Config{
		Workers:           2,
		SigKind:           signature.Exact,
		CheckpointEvery:   2,
		ForceMisspecEpoch: 2,
	})
	if stats.Misspeculations != 1 {
		t.Errorf("Misspeculations = %d, want exactly 1", stats.Misspeculations)
	}
	if stats.ReexecutedEpochs != 2 {
		t.Errorf("ReexecutedEpochs = %d, want exactly 2", stats.ReexecutedEpochs)
	}
	if stats.Epochs != 4 {
		t.Errorf("committed Epochs = %d, want 4", stats.Epochs)
	}
	want := sequentialRecoveryState()
	for i := range want {
		if w.state[i] != want[i] {
			t.Errorf("state[%d] = %d after recovery, sequential = %d", i, w.state[i], want[i])
		}
	}
}
