package chaos

import (
	"fmt"
	"slices"

	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/workloads/epochal"
)

// Mutation names a deliberately injected engine-contract bug, applied at
// the instrumentation boundary between a workload and the engines. Each
// one models a realistic compiler/runtime defect — a ComputeAddr slice
// that misses an access, spec_access instrumentation that skips a store,
// a rollback that does not actually restore — and exists to prove the
// harness *detects* such bugs: a differential run over a mutated workload
// must fail and shrink to a replayable case.
type Mutation string

const (
	// MutNone applies no mutation.
	MutNone Mutation = ""
	// MutDropAddr makes ComputeAddr omit the first address whenever an
	// iteration has more than one, so the DOMORE scheduler misses the
	// dependences through that address and forwards no sync condition.
	MutDropAddr Mutation = "drop-addr"
	// MutDropSigWrite makes speculative tasks omit their first write from
	// the recorded signature, so the SPECCROSS checker can miss a real
	// cross-epoch conflict and commit a violated segment.
	MutDropSigWrite Mutation = "drop-sig-write"
	// MutSkipRestore turns StoreCells into a no-op over a view with no cell
	// map, so the whole-image rollback silently fails and misspeculation
	// recovery re-executes on top of poisoned speculative state.
	MutSkipRestore Mutation = "skip-restore"
	// MutSkipDeltaRestore turns StoreCells into a no-op over the kernel's
	// cell map: the rollback of the write set's dirty cells silently fails
	// to repair the cells it believes it restored, so only the harness's
	// coverage of the mapped path can catch this one.
	MutSkipDeltaRestore Mutation = "skip-delta-restore"
	// MutSkipDirtyCell models an incremental checkpointer whose bitmap walk
	// stops one cell short: every bulk commit and every bulk rollback
	// leaves out the highest dirty cell, so the base image keeps a stale
	// value there, or the rolled-back state a speculative one. The
	// engine's seam for it is the workload's SkipDirtyCell method; only a
	// misspeculation that rolls back a cell the segment really wrote can
	// catch it, so it pairs with the torn-delta fault, and its catcher
	// starts adaptive-guarded at SPECCROSS so that every SPECCROSS arm,
	// guarded or not, reaches it.
	MutSkipDirtyCell Mutation = "skip-dirty-cell"
	// MutWidenStatic corrupts the static cross-invocation claim rather
	// than the engines: the xdep-style classification of the case is
	// forced to "none" (provably conflict-free) regardless of its declared
	// access sets. The soundness gate must catch the lie by observing a
	// real cross-epoch conflict through shadow memory.
	MutWidenStatic Mutation = "widen-static"
	// MutStaleRuntime skips one reset between two runs that share an engine
	// runtime: the harness rewinds the workload's state for the next run
	// without telling the runtime (no Runtime.StateChanged), so the
	// incremental-checkpoint base image the previous run left there is
	// taken for current. The next misspeculation then "restores" dirty
	// cells to values from the wrong run. Only the dirty-runtime pass
	// shares a runtime between runs, so only it can catch this one.
	MutStaleRuntime Mutation = "stale-runtime"
	// MutReleaseKeepsVersion models an engine pool that parks a released
	// runtime as its borrower left it — state version not advanced, the
	// last workload still on record as the checkpoint image's owner
	// (engine.Runtime.ReleaseStale). The harness rewinds the kernel between
	// two pooled runs and, unlike on a runtime of its own, has nobody to
	// tell; the next run is handed the same runtime and takes the image for
	// current, exactly as under MutStaleRuntime. Only the pooled half of the
	// dirty-runtime pass borrows from the pool twice over one kernel, so
	// only it can catch this one.
	MutReleaseKeepsVersion Mutation = "release-keeps-version"
	// MutElideCrossCond models a DOMORE scheduler that trusts its default
	// assignment too far: an iteration placed on the worker its newest
	// dependence ran on gets no condition at all, as if that worker's
	// program order discharged its dependences on other workers too. The
	// engine's seam for it is the workload's ElideCrossConds method, so it
	// breaks exactly the runs of the DOMORE engine proper; only a case with
	// an iteration that depends on two workers at once can catch it.
	MutElideCrossCond Mutation = "elide-cross-cond"
	// MutRunPastCond models a DOMORE scheduler that coalesces too far: an
	// iteration that needs a condition but continues the run its worker
	// has open is folded into that run and its conditions are dropped, as
	// if a run record carried the conditions of every iteration in it. The
	// engine's seam for it is the workload's RunPastConds method; only a
	// case whose iteration depends on another worker while its own worker
	// still holds the run before it can catch it.
	MutRunPastCond Mutation = "run-past-cond"
	// MutResumeOffByOne models a DOMORE guard that loses its place: the
	// scheduler takes over one iteration past where the inline probe
	// stopped, so that iteration never runs. The engine's seam for it is
	// the workload's ResumeOffByOne method; only a guarded run that goes
	// parallel, which a case whose bodies outweigh their address
	// computation makes it do, can catch it: domore-guarded, and
	// adaptive-guarded, whose first window runs DOMORE's guard.
	MutResumeOffByOne Mutation = "resume-off-by-one"
	// MutResumeSkipEpoch models a SPECCROSS guard that loses its place: the
	// region resumes one epoch past where the inline probe stopped, inline
	// or speculatively, so that epoch never runs. The engine's seam for it
	// is the workload's ResumeSkipEpoch method; only a guarded arm of a
	// case longer than the probe can catch it: speccross-guarded, and
	// adaptive-guarded once its policy has switched to a SPECCROSS it has
	// not priced.
	MutResumeSkipEpoch Mutation = "resume-skip-epoch"
	// MutInlineWindowSkipEpoch models an adaptive guard that loses its
	// place: every window its price test runs inline starts one epoch
	// late, so that epoch never runs. The controller's seam for it is the
	// workload's InlineWindowSkipEpoch method; only the adaptive-guarded
	// arm can catch it, on a case longer than one window, since an
	// engine's own guard runs the first: one whose cheap bodies make the
	// price test choose inline execution for a later window.
	MutInlineWindowSkipEpoch Mutation = "inline-window-skip-epoch"
	// MutChunkTailUnchecked models a SPECCROSS checker that takes a chunk
	// for its first task: of each chunk of consecutive tasks a worker
	// hands it, it logs and compares only the first entry, so a conflict
	// of any later task of a chunk goes unseen. The engine's seam for it is
	// the workload's SkipChunkTail method; only a run whose distance cuts
	// epochs into chunks of two or more tasks, and lets a conflicting pair
	// overlap, can catch it: an overstated Spec.Distance under an arm that
	// speculates.
	MutChunkTailUnchecked Mutation = "chunk-tail-unchecked"
)

// Mutations lists the non-empty mutation kinds.
func Mutations() []Mutation {
	return []Mutation{MutDropAddr, MutDropSigWrite, MutSkipRestore, MutSkipDeltaRestore, MutSkipDirtyCell, MutWidenStatic, MutStaleRuntime, MutReleaseKeepsVersion, MutElideCrossCond, MutRunPastCond, MutResumeOffByOne, MutResumeSkipEpoch, MutInlineWindowSkipEpoch, MutChunkTailUnchecked}
}

// ParseMutation validates a -mutate flag value.
func ParseMutation(s string) (Mutation, error) {
	m := Mutation(s)
	if m == MutNone || slices.Contains(Mutations(), m) {
		return m, nil
	}
	return MutNone, fmt.Errorf("chaos: unknown mutation %q", s)
}

// Faults is the fault plan that makes the mutation's broken path run:
// skip-restore is only reachable through a misspeculation recovery, so it
// pairs with a deterministic injected panic (plus the torn-state scribble
// the skipped restore then fails to repair). skip-delta-restore and
// skip-dirty-cell likewise pair with the torn-delta fault, whose scribbled
// cell only a working delta rollback repairs. The other mutations corrupt
// paths every run exercises and need no help.
func (m Mutation) Faults() FaultPlan {
	switch m {
	case MutSkipRestore:
		return FaultPlan{Panic: true, TornState: true}
	case MutSkipDeltaRestore, MutSkipDirtyCell:
		return FaultPlan{TornDelta: true}
	case MutStaleRuntime, MutReleaseKeepsVersion:
		// Seed 0 dirties the shared runtime with a forced misspeculation,
		// whose delta restore is what reads the stale image.
		return FaultPlan{DirtyRuntime: true}
	}
	return FaultPlan{}
}

// MutationCatcher is a hand-built case on which every Mutation produces a
// near-deterministic divergence: pairs of epochs where a slow writer
// (epoch 2i, task 0: a long spin, then a store to cell 2i) is followed by
// a fast cross-epoch reader (epoch 2i+1, task 1: load cell 2i, store cell
// 2i+1). Any engine that loses the dependence — a dropped ComputeAddr
// entry, a write missing from a signature, a restore that never happens —
// lets the reader observe the pre-write value while the writer is still
// spinning, and the final state diverges from the oracle. Three pairs
// make the case span multiple SPECCROSS segments and adaptive windows at
// the defaults.
func MutationCatcher() *Spec {
	s := &Spec{
		Name:     "chaos-mutation-catcher",
		StateLen: 6,
		SigKind:  "exact",
	}
	for i := 0; i < 3; i++ {
		a := uint64(2 * i)
		s.Epochs = append(s.Epochs,
			EpochSpec{Tasks: []TaskSpec{
				{Writes: []uint64{a}, Work: 200000},
				{},
			}},
			EpochSpec{Tasks: []TaskSpec{
				{},
				{Reads: []uint64{a}, Writes: []uint64{a + 1}},
			}},
		)
	}
	return mustValid(s)
}

// Catcher returns the hand-built case the mutation's self-test runs on:
// MutationCatcher for the mutations that lose a dependence; for
// MutStaleRuntime and MutReleaseKeepsVersion a case with no cross-thread
// dependence at all; for MutElideCrossCond a case whose readers depend on
// two workers; and for MutRunPastCond one whose readers do so from inside
// their worker's block.
//
// A stale checkpoint image only exists after a run whose last segment
// committed, and MutationCatcher's segments all misspeculate; in the
// runtime catcher every segment of the warm-up commits, so the forced
// misspeculation of the run after it restores read-modify-written cells
// from the wrong run's image.
//
// MutSkipDirtyCell runs on the resume catcher cut to dirtyCatcherEpochs
// epochs, an odd number, so that the adaptive-guarded arm starts at
// SPECCROSS. SPECCROSS's guard finds the bodies costly and speculates once
// its probe has run, within the first adaptive window too, and the
// torn-delta fault then fails the first speculative task. Every task of
// the segment stores to a cell of its own after recording it, so the
// highest dirty cell was written, and the broken rollback leaves its
// speculative value in place.
//
// In MutationCatcher the reader is the only later accessor of the cell it
// reads, so the default DOMORE assignment puts it behind its writer on one
// worker and no condition is left to elide. The cross catcher's epochs
// pair a slow writer of cell 3i with a fast writer of cell 3i+1, and the
// next epoch's reader loads both: it follows the fast writer, so the slow
// one is on another worker and reachable only through a condition.
//
// The run catcher's epochs have runCatcherTasks tasks, so at the default
// four workers each worker's block is two tasks. A slow writer of cell 3i
// runs first in worker 0's block and a fast writer of cell 3i+1 first in
// worker 1's; in the next epoch the second task of worker 1's block loads
// both. It stays behind the fast writer on worker 1, continuing the run of
// the empty task before it, and needs a condition on worker 0.
//
// The resume catcher's tasks each spin resumeCatcherWork rounds and write
// a cell of their own, so DOMORE's guard finds every body far costlier than
// its address computation and hands the region to the scheduler once its
// probe has run; the region is long enough for the probe to stop inside it.
// Whichever iteration the broken resume skips leaves its cell unwritten.
// It is SPECCROSS's catcher too: its guard's probe stops at an epoch
// boundary inside the region, and the epoch the broken resume skips leaves
// its cells unwritten whether the rest runs speculatively or inline.
//
// MutChunkTailUnchecked runs on the chunk catcher: pairs of epochs of
// runCatcherTasks tasks at an overstated distance, which at the default
// four workers cuts each epoch into four chunks of two tasks, chunk c on
// worker c. A slow writer of cell 2i heads worker 3's chunk of the first
// epoch of a pair; the reader of that cell is task 1 of the second, the
// tail of worker 0's chunk, which the overstated distance lets run while
// the writer still spins or has not started. Only the reader's own entry
// shows the conflict.
//
// MutInlineWindowSkipEpoch runs on the inline catcher: inlineCatcherEpochs
// epochs of runCatcherTasks empty tasks, each writing a cell of its own,
// so it spans several adaptive windows. DOMORE's guard runs the first
// window, and its bodies cost less than their address computation, so it
// keeps the window inline and prices DOMORE at its scheduler estimate,
// above the measured inline rate; the price test then runs the next window
// inline on its own. Should the estimate come out below, the window is
// posted, and a posted window of empty tasks costs its wake-up and quiesce,
// so the one after it runs inline. Whichever epoch the broken inline
// window skips leaves its cells unwritten.
func (m Mutation) Catcher() *Spec {
	switch m {
	case MutStaleRuntime, MutReleaseKeepsVersion:
		s := &Spec{Name: "chaos-runtime-catcher", StateLen: 2, SigKind: "exact"}
		for e := 0; e < 4; e++ {
			s.Epochs = append(s.Epochs, EpochSpec{Tasks: []TaskSpec{
				{Writes: []uint64{0}},
				{Writes: []uint64{1}},
			}})
		}
		return mustValid(s)
	case MutElideCrossCond:
		s := &Spec{Name: "chaos-cross-catcher", StateLen: 9, SigKind: "exact"}
		for i := uint64(0); i < 3; i++ {
			a := 3 * i
			s.Epochs = append(s.Epochs,
				EpochSpec{Tasks: []TaskSpec{
					{Writes: []uint64{a}, Work: 200000},
					{Writes: []uint64{a + 1}},
				}},
				EpochSpec{Tasks: []TaskSpec{
					{},
					{Reads: []uint64{a, a + 1}, Writes: []uint64{a + 2}},
				}},
			)
		}
		return mustValid(s)
	case MutResumeOffByOne, MutResumeSkipEpoch, MutSkipDirtyCell:
		epochs := resumeCatcherEpochs
		if m == MutSkipDirtyCell {
			epochs = dirtyCatcherEpochs
		}
		s := &Spec{Name: "chaos-resume-catcher", StateLen: epochs * runCatcherTasks, SigKind: "exact"}
		for e := 0; e < epochs; e++ {
			tasks := make([]TaskSpec, runCatcherTasks)
			for i := range tasks {
				tasks[i] = TaskSpec{Writes: []uint64{uint64(e*runCatcherTasks + i)}, Work: resumeCatcherWork}
			}
			s.Epochs = append(s.Epochs, EpochSpec{Tasks: tasks})
		}
		return mustValid(s)
	case MutInlineWindowSkipEpoch:
		s := &Spec{Name: "chaos-inline-catcher", StateLen: inlineCatcherEpochs * runCatcherTasks, SigKind: "exact"}
		for e := 0; e < inlineCatcherEpochs; e++ {
			tasks := make([]TaskSpec, runCatcherTasks)
			for i := range tasks {
				tasks[i] = TaskSpec{Writes: []uint64{uint64(e*runCatcherTasks + i)}}
			}
			s.Epochs = append(s.Epochs, EpochSpec{Tasks: tasks})
		}
		return mustValid(s)
	case MutChunkTailUnchecked:
		s := &Spec{Name: "chaos-chunk-catcher", StateLen: 6, SigKind: "exact", Distance: distOverstated}
		for i := uint64(0); i < 3; i++ {
			a := 2 * i
			write, read := make([]TaskSpec, runCatcherTasks), make([]TaskSpec, runCatcherTasks)
			write[runCatcherTasks-2] = TaskSpec{Writes: []uint64{a}, Work: 200000}
			read[1] = TaskSpec{Reads: []uint64{a}, Writes: []uint64{a + 1}}
			s.Epochs = append(s.Epochs, EpochSpec{Tasks: write}, EpochSpec{Tasks: read})
		}
		return mustValid(s)
	case MutRunPastCond:
		s := &Spec{Name: "chaos-run-catcher", StateLen: 9, SigKind: "exact"}
		for i := uint64(0); i < 3; i++ {
			a := 3 * i
			write, read := make([]TaskSpec, runCatcherTasks), make([]TaskSpec, runCatcherTasks)
			write[0] = TaskSpec{Writes: []uint64{a}, Work: 200000}
			write[2] = TaskSpec{Writes: []uint64{a + 1}}
			read[3] = TaskSpec{Reads: []uint64{a, a + 1}, Writes: []uint64{a + 2}}
			s.Epochs = append(s.Epochs, EpochSpec{Tasks: write}, EpochSpec{Tasks: read})
		}
		return mustValid(s)
	}
	return MutationCatcher()
}

// runCatcherTasks is the task count of the run catcher's epochs: two per
// worker at the harness's default four.
const runCatcherTasks = 8

// The resume catcher's shape: 32 epochs of runCatcherTasks tasks, each
// spinning resumeCatcherWork rounds — microseconds a task, against the
// tenths of one its address computation costs.
const (
	resumeCatcherEpochs = 32
	resumeCatcherWork   = 4000
)

// dirtyCatcherEpochs is the dirty-cell catcher's length: odd, and longer
// than the probe.
const dirtyCatcherEpochs = 13

// inlineCatcherEpochs is the inline catcher's length: four adaptive
// windows at the harness's default window of four epochs.
const inlineCatcherEpochs = 16

func mustValid(s *Spec) *Spec {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// Wrap applies the mutation to a case's kernel. MutNone returns the
// kernel unchanged, as do MutWidenStatic — it lies about the analysis,
// not the execution (RunSpec corrupts the claim before the gate) — and
// MutStaleRuntime and MutReleaseKeepsVersion, which break the harness's own
// use of a shared runtime and the pool's release of one (dirtyRun.reset,
// dirtyRun.on). The wrappers of MutElideCrossCond, MutRunPastCond and
// MutResumeOffByOne change nothing but ask the DOMORE engine to break itself
// (ElideCrossConds, RunPastConds, ResumeOffByOne), MutResumeSkipEpoch's,
// MutSkipDirtyCell's and MutChunkTailUnchecked's ask the SPECCROSS engine
// (ResumeSkipEpoch, SkipDirtyCell, SkipChunkTail), and
// MutInlineWindowSkipEpoch's asks the adaptive controller
// (InlineWindowSkipEpoch).
func (m Mutation) Wrap(k *epochal.Kernel) adaptive.Workload {
	if m == MutNone || m == MutWidenStatic || m == MutStaleRuntime || m == MutReleaseKeepsVersion {
		return k
	}
	return &mutated{k: k, m: m}
}

type mutated struct {
	k *epochal.Kernel
	m Mutation
}

func (w *mutated) Invocations() int         { return w.k.Invocations() }
func (w *mutated) Iterations(inv int) int   { return w.k.Iterations(inv) }
func (w *mutated) Sequential(inv int)       { w.k.Sequential(inv) }
func (w *mutated) Execute(inv, iter, t int) { w.k.Execute(inv, iter, t) }
func (w *mutated) Epochs() int              { return w.k.Epochs() }
func (w *mutated) Tasks(epoch int) int      { return w.k.Tasks(epoch) }

// ElideCrossConds is the DOMORE engine's seam for MutElideCrossCond.
func (w *mutated) ElideCrossConds() bool { return w.m == MutElideCrossCond }

// RunPastConds is the DOMORE engine's seam for MutRunPastCond.
func (w *mutated) RunPastConds() bool { return w.m == MutRunPastCond }

// ResumeOffByOne is the DOMORE engine's seam for MutResumeOffByOne.
func (w *mutated) ResumeOffByOne() bool { return w.m == MutResumeOffByOne }

// ResumeSkipEpoch is the SPECCROSS engine's seam for MutResumeSkipEpoch.
func (w *mutated) ResumeSkipEpoch() bool { return w.m == MutResumeSkipEpoch }

// SkipDirtyCell is the SPECCROSS engine's seam for MutSkipDirtyCell.
func (w *mutated) SkipDirtyCell() bool { return w.m == MutSkipDirtyCell }

// SkipChunkTail is the SPECCROSS engine's seam for MutChunkTailUnchecked.
func (w *mutated) SkipChunkTail() bool { return w.m == MutChunkTailUnchecked }

// InlineWindowSkipEpoch is the adaptive controller's seam for
// MutInlineWindowSkipEpoch.
func (w *mutated) InlineWindowSkipEpoch() bool { return w.m == MutInlineWindowSkipEpoch }

// The cell image forwards to the kernel. Both restore mutations break its
// rollback, skip-restore with no cell map (every rollback rewrites the
// whole image) and skip-delta-restore with the kernel's (a rollback
// rewrites the write set's dirty cells).
func (w *mutated) StateLen() int                    { return w.k.StateLen() }
func (w *mutated) LoadCells(lo uint64, dst []int64) { w.k.LoadCells(lo, dst) }

func (w *mutated) StoreCells(lo uint64, src []int64) {
	if w.m == MutSkipRestore || w.m == MutSkipDeltaRestore {
		return
	}
	w.k.StoreCells(lo, src)
}

func (w *mutated) CellMap() func(addr uint64) (lo, hi uint64) {
	if w.m == MutSkipRestore {
		return nil
	}
	return w.k.CellMap()
}

func (w *mutated) ComputeAddr(inv, iter int, buf []uint64) []uint64 {
	out := w.k.ComputeAddr(inv, iter, buf)
	switch {
	case w.m == MutDropAddr && len(out) > 1:
		copy(out, out[1:])
		out = out[:len(out)-1]
	}
	return out
}

func (w *mutated) Run(epoch, task, tid int, sig *signature.Signature) {
	if w.m == MutDropSigWrite && sig != nil {
		r, wr := w.k.Access(epoch, task, nil, nil)
		for _, a := range r {
			sig.Read(a)
		}
		for i, a := range wr {
			if i > 0 {
				sig.Write(a)
			}
		}
		// State effects are untouched — only the recorded evidence lies.
		w.k.Update(epoch, task)
		return
	}
	w.k.Run(epoch, task, tid, sig)
}
