package speccross

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"crossinv/internal/runtime/barrier"
	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/queue"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/trace"
)

// Run executes the workload under SPECCROSS and returns runtime statistics.
//
// Execution proceeds in segments of Config.CheckpointEvery epochs. Each
// segment begins from a checkpoint; its epochs run speculatively (no
// barriers). If the checker detects a violation — or a worker panics, or an
// injected fault or timeout fires — the whole segment is rolled back to its
// checkpoint and re-executed with non-speculative barriers, the recovery
// semantics of §4.2.2 (the paper re-executes the misspeculated prefix; we
// conservatively re-execute the segment, which preserves the checkpoint-
// frequency/re-execution trade-off Fig 5.3 studies). Epochs flagged
// irreversible are likewise executed non-speculatively between two full
// synchronizations.
//
// Within a segment each worker runs its chunks of every epoch in order
// (see the package documentation): per chunk it publishes its position,
// waits at the range gate until the chunk's last task is less than the
// epoch's distance ahead of every other worker's completion, reads the
// other workers' positions as the chunk's watermarks, runs the tasks —
// each with a signature of its own — publishes its position one past the
// chunk and then its completion, and hands the checker the chunk's entries
// in one request. A watermark the checker reads as "still running" is then
// at most the distance behind every task of the chunk that read it, so a
// faithful profile keeps the checker quiet, as it did one task a chunk.
//
// The checkpoint is the workload's cell image (Workload.StateLen,
// LoadCells, StoreCells): the engine keeps one copy of every cell on the
// runtime, captured in one bulk copy before the first speculative segment
// and again after any untracked phase. For a workload with a cell map, a
// commit marks the cells the segment's tracked write set spans in a
// bitmap, one bit per cell, and refreshes each run of marked cells in one
// copy; a rollback likewise rewrites only those runs. This is the
// checkpoint substitution of §4.2.2: checkpoint and recovery cost are
// bounded by the write set, not the heap — a segment that dirtied most of
// the state costs about one copy of it, and one that dirtied a few cells
// costs those cells plus a scan of StateLen/64 words. A workload with no
// cell map logs no writes: its rollback rewrites every cell, and its
// commit leaves the image to be captured again before the next segment.
// The control goroutine's time in all of it is Stats.CheckpointNs.
//
// Unless the run sets ForceMisspecEpoch, Run is guarded, as the package
// documentation describes. Its probe runs epochs on the calling thread
// until the first epoch boundary past the runtime's start-up budget
// (engine.Runtime.Budget), and never fewer than the two sampled epochs the
// checker sample needs. Speculation starts at that boundary only when
// max(instr/W, check/S, (instr+check)/min(GOMAXPROCS, W+S)) is below the
// inline ns per task, where instr and check are the sampled ns per task of
// an instrumented body and of the checker, W the workers and S the checker
// shards: every task runs instrumented on some worker and is checked by
// some shard, and all of them share at most W+S processors. The bound
// leaves out watermarks, rings, the range gate, checkpoints and wake-ups,
// so it errs toward speculating; the segment check makes up for it. Each
// speculative segment is timed from its checkpoint to its commit, recovery
// included, and once one costs at least the inline ns per task, the rest
// of the region runs on the calling thread. The decision is in
// Stats.Inline, InlineNs and SpecNs, and in one trace.KindInline event on
// the control lane. A panic in a task the guard runs inline continues on
// the caller, and the runtime goes back to the pool usable.
//
// Run is RunGuardedOn, plus that event, on a runtime borrowed from the
// engine pool for the call and released on return; every segment and every
// recovery of the run shares its threads and state, and so does the next
// call that is handed the same runtime.
func Run(w Workload, cfg Config) Stats {
	if cfg.ForceMisspecEpoch > 0 {
		return RunParallel(w, cfg)
	}
	cfg.fill()
	rt := engine.Acquire(cfg.Workers)
	defer rt.Release()
	stats := RunGuardedOn(rt, w, cfg)
	cfg.Trace.Lane(trace.LaneControl).Emit(trace.KindInline, stats.Inline, int64(stats.InlineNs), int64(stats.SpecNs))
	return stats
}

// RunGuardedOn is Run's guarded execution on the threads and state of rt,
// which must have been created for cfg.Workers workers. Run sends a run that
// sets ForceMisspecEpoch to RunParallel instead; RunGuardedOn guards it like
// any other. Unlike Run, it emits no
// trace.KindInline, so a caller running it inside a larger region (the
// adaptive controller's windows) traces its inline work once, itself.
func RunGuardedOn(rt *engine.Runtime, w Workload, cfg Config) Stats {
	cfg.fill()
	st := stateOn(rt, cfg.Workers)
	st.cfg = cfg
	var stats Stats
	rt.Labeled("speccross", "control", func() { stats = st.run(w, true) })
	return stats
}

// RunParallel is RunOn on a runtime borrowed from the engine pool for the
// call and released on return: Run without its guard, speculating from the
// region's first epoch whatever the region costs. The tests and chaos arms
// that pin what speculation does run it.
func RunParallel(w Workload, cfg Config) Stats {
	cfg.fill()
	rt := engine.Acquire(cfg.Workers)
	defer rt.Release()
	return RunOn(rt, w, cfg)
}

// RunOn is the unguarded speculative execution — Run with no probe and no
// segment check — on the threads and state of rt, which must have been
// created for cfg.Workers workers: the calling goroutine is the segment
// control, speculative and recovery workers run on the runtime's worker
// threads, the checker shards on its auxiliary threads, and every segment
// and every recovery of the run reuses them. Rings, progress words, the
// checker log and the signature arenas are reset per segment, not rebuilt.
// The adaptive controller's speculative windows run it.
//
// The checkpoint's cell image is kept on the runtime too, and stays valid
// from one RunOn to the next over the same workload value as long as every
// change to the workload's state in between was a tracked speculative
// write. Engines running on rt report their untracked phases themselves; a
// caller that changes the state between two runs (a reset,
// re-initialisation) must call rt.StateChanged.
//
// If control, a checker shard or a recovery worker panics, rt is closed and
// the panic continues on the caller; a panic of a speculative worker is a
// misspeculation (§4.2.2).
func RunOn(rt *engine.Runtime, w Workload, cfg Config) Stats {
	cfg.fill()
	defer rt.Settle()
	var stats Stats
	// Segment control (checkpoint, rollback, recovery sequencing) runs on
	// the calling goroutine; label it so profile samples of the image's
	// copies attribute to the control lane.
	st := stateOn(rt, cfg.Workers)
	st.cfg = cfg
	rt.Labeled("speccross", "control", func() { stats = st.run(w, false) })
	return stats
}

// run executes the region from its first epoch, behind the guard when
// guarded is set.
func (st *state) run(w Workload, guarded bool) Stats {
	var stats Stats
	cfg := &st.cfg
	ctl := cfg.Trace.Lane(trace.LaneControl)

	irr, hasIrr := w.(Irreversibler)
	epochs := w.Epochs()

	// Checkpoint state: a cell image of the whole state on the runtime
	// plus a bitmap of the segment's dirty cells, copied as runs of set
	// bits. The image is captured lazily, when a speculative segment is
	// about to need it: untracked execution (barrier recovery, irreversible
	// epochs, the guard's inline epochs) only counts its checkpoint here,
	// and the image is captured — once — before the next speculation.
	// Every capture, commit and rollback is timed into Stats.CheckpointNs.
	cellOf := w.CellMap()
	st.skipCell, st.headOnly = false, false
	if s, ok := w.(dirtyCellSkipper); ok {
		st.skipCell = s.SkipDirtyCell()
	}
	if s, ok := w.(chunkTailSkipper); ok {
		st.headOnly = s.SkipChunkTail()
	}
	checkpoint := func(end int) {
		stats.Checkpoints++
		ctl.Emit(trace.KindCheckpoint, int64(end), 0, 0)
	}
	// commit refreshes the image for the committed segment's tracked write
	// set, or, with no cell map, leaves it to be captured again.
	commit := func(end int) {
		if cellOf == nil {
			st.baseFor = nil
			checkpoint(end)
			return
		}
		t0 := time.Now()
		cells := st.copyDirty(w, cellOf, true)
		stats.CheckpointNs += int64(time.Since(t0))
		stats.DeltaCheckpoints++
		stats.DeltaCells += cells
		checkpoint(end)
		ctl.Emit(trace.KindCkptDelta, cells, int64(end), 0)
	}
	// restore rolls the state back to the segment's checkpoint by
	// rewriting its dirty cells from the image.
	restore := func(start int) {
		t0 := time.Now()
		cells := st.copyDirty(w, cellOf, false)
		stats.CheckpointNs += int64(time.Since(t0))
		ctl.Emit(trace.KindRestore, cells, int64(start), 0)
	}

	start := 0
	var (
		g    guard
		segT time.Time // when the segment being timed began
	)
	if guarded {
		g = st.probe(w, &stats)
		start = g.at
		if s, ok := w.(resumeSkipper); ok && s.ResumeSkipEpoch() && start < epochs {
			start++
		}
		if g.parallel {
			segT = time.Now()
		} else {
			st.runInline(w, start, epochs, &stats)
			start = epochs
		}
	}
	for start < epochs {
		// An irreversible epoch forms its own non-speculative segment.
		if hasIrr && irr.Irreversible(start) {
			st.runBarriers(w, start, start+1, cfg.Trace)
			checkpoint(start + 1)
			start++
			if guarded {
				segT = time.Now()
			}
			continue
		}
		end := start + cfg.CheckpointEvery
		if end > epochs {
			end = epochs
		}
		if hasIrr {
			for e := start + 1; e < end; e++ {
				if irr.Irreversible(e) {
					end = e
					break
				}
			}
		}

		t0 := time.Now()
		st.ensureBase(w)
		stats.CheckpointNs += int64(time.Since(t0))
		ctl.Emit(trace.KindEpochBegin, int64(start), int64(end), 0)
		reason := st.runSpeculative(w, cfg, start, end, cellOf != nil)
		st.fold(&stats)
		if reason == misspecNone {
			ctl.Emit(trace.KindEpochCommit, int64(end-start), int64(start), int64(end))
			commit(end)
			stats.Epochs += int64(end - start)
			stats.Tasks += st.prefix[end-start]
		} else {
			stats.Misspeculations++
			ctl.Emit(trace.KindMisspec, int64(reason), int64(start), int64(end))
			ctl.Emit(trace.KindEpochAbort, int64(start), int64(end), 0)
			restore(start)
			ctl.Emit(trace.KindRecoveryBegin, int64(start), int64(end), 0)
			st.runBarriers(w, start, end, cfg.Trace)
			stats.ReexecutedEpochs += int64(end - start)
			ctl.Emit(trace.KindRecoveryEnd, int64(end-start), int64(start), int64(end))
			// Recovery ran untracked (nil signatures), which made the base
			// image stale; the next speculative segment re-captures it.
			checkpoint(end)
		}
		start = end
		if guarded && start < epochs {
			// The segment check: one clock read per segment.
			now := time.Now()
			if tasks := st.prefix[len(st.prefix)-1]; tasks > 0 {
				if rate := float64(now.Sub(segT)) / float64(tasks); rate >= g.inlineNs {
					g.specNs = rate
					st.runInline(w, start, epochs, &stats)
					start = epochs
				}
			}
			segT = now
		}
	}
	if guarded {
		stats.InlineNs, stats.SpecNs = g.inlineNs, g.specNs
	}
	return stats
}

// runInline executes epochs [from, to) in order on the calling thread: the
// sequential execution, so it needs no checker and no checkpoint. It is
// untracked, which makes any cached checkpoint image stale.
func (st *state) runInline(w Workload, from, to int, stats *Stats) {
	st.rt.StateChanged()
	for e := from; e < to; e++ {
		n := w.Tasks(e)
		for t := 0; t < n; t++ {
			w.Run(e, t, 0, nil)
		}
		stats.Tasks += int64(n)
		stats.InlineTasks += int64(n)
	}
	stats.Inline += int64(to - from)
}

// RunBarriers executes the workload with the baseline plan: every epoch's
// tasks are split across workers and a non-speculative barrier separates
// epochs (Fig 4.2(c)). It returns the barrier so callers can read idle-time
// statistics (Fig 4.3).
func RunBarriers(w Workload, workers int) *barrier.Barrier {
	return RunBarriersTraced(w, workers, nil)
}

// RunBarriersTraced is RunBarriers with event tracing: each worker tid
// emits iteration spans and barrier-wait spans on lane tid of rec. A nil
// rec is equivalent to RunBarriers. It runs on a runtime borrowed from the
// engine pool; the barrier it returns is a copy carrying the run's
// statistics, because the next borrower restarts the runtime's own.
func RunBarriersTraced(w Workload, workers int, rec *trace.Recorder) *barrier.Barrier {
	if workers <= 0 {
		panic(fmt.Sprintf("speccross: invalid worker count %d", workers))
	}
	rt := engine.Acquire(workers)
	defer rt.Release()
	return RunBarriersOn(rt, w, rec).Snapshot()
}

// RunBarriersOn is RunBarriersTraced on the worker threads of rt, one
// worker per runtime worker. The barrier it returns is the runtime's, with
// its statistics restarted for this run.
func RunBarriersOn(rt *engine.Runtime, w Workload, rec *trace.Recorder) *barrier.Barrier {
	defer rt.Settle()
	rt.Barrier().ResetStats()
	return stateOn(rt, rt.Workers()).runBarriers(w, 0, w.Epochs(), rec)
}

func (st *state) runBarriers(w Workload, start, end int, rec *trace.Recorder) *barrier.Barrier {
	st.w, st.start, st.end, st.rec = w, start, end, rec
	// Barrier execution records no signatures: cached images go stale.
	st.rt.StateChanged()
	bar := st.rt.Barrier()
	for tid := range st.local {
		st.rt.Go(tid, "barrier", "worker", st.local[tid].runBarrier)
	}
	st.rt.Wait()
	return bar
}

func (st *state) barrierWorker(tid int) {
	w, bar, workers := st.w, st.rt.Barrier(), len(st.local)
	tt := st.rec.Lane(int32(tid))
	for e := st.start; e < st.end; e++ {
		n := w.Tasks(e)
		for t := tid; t < n; t += workers {
			tt.Emit(trace.KindIterStart, int64(e), int64(t), 0)
			w.Run(e, t, tid, nil)
			tt.Emit(trace.KindIterEnd, int64(e), int64(t), 0)
		}
		tt.Emit(trace.KindBarrierWaitBegin, int64(e), 0, 0)
		bar.Wait()
		tt.Emit(trace.KindBarrierWaitEnd, int64(e), 0, 0)
		if st.rt.Stopped() {
			return // a worker died and the barrier was aborted
		}
	}
}

// taskEntry is one logged task execution: its signature plus the watermark
// vector (other threads' positions when the task's chunk began, shared by
// every task of the chunk), which the checker needs to pair overlapping
// tasks in both directions.
type taskEntry struct {
	tid int32
	pos uint64   // packed (epoch, task)
	wm  []uint64 // packed watermark per worker (own slot unused)
	sig *signature.Signature
}

// request is one message on a worker→checker queue: the entries of one
// chunk, in task order, or the worker's end token.
type request struct {
	entries []taskEntry
	end     bool
}

// stateKey is the key SPECCROSS's state is kept under in a runtime.
type stateKey struct{}

// state is what a runtime keeps for SPECCROSS between segments, recoveries
// and runs: the worker→checker rings, the position and completion words,
// the checker log, the per-worker signature arenas and write logs, and the
// checkpoint's cell image. A segment resets what it uses; the
// rings are rebuilt only for a different capacity, the arenas only for a
// different signature kind.
type state struct {
	rt       *engine.Runtime
	queueCap int
	queues   []*queue.SPSC[request]
	// pos[tid] is the packed (epoch, task) each worker most recently began.
	pos []paddedU64
	// done[tid] is worker tid's completion frontier for range gating: every
	// task of the worker numbered at or below it (globally) is complete. It
	// is the last completed task, or one below the task the worker is
	// stalled at.
	done   []paddedI64
	local  []workerLocal
	shards []shardLocal
	chk    checker
	kind   signature.Kind // of the arenas and the checker's unions

	// The checkpoint's cell image: base holds every cell's checkpointed
	// value, dirty the cells the finished segment wrote. It is current
	// while baseFor is the workload it was read from and baseVersion the
	// runtime's state version (see RunOn). skipCell is the run's
	// skip-dirty-cell seam (dirtyCellSkipper).
	base        []int64
	dirty       dirtySet
	baseFor     Workload
	baseVersion uint64
	skipCell    bool

	// The phase in progress, written by the control goroutine before it
	// posts to the threads.
	w          Workload
	cfg        Config // a copy: a pointer to the caller's would put one on the heap per run
	rec        *trace.Recorder
	start, end int
	// prefix[e-start] is the global task number of the first task of epoch e.
	prefix []int64
	// misspec holds segBase while the segment is clean and segBase|reason
	// once it must be abandoned. segBase changes every segment, so a
	// SpecTimeout timer that fires late cannot flag a segment it was not
	// armed for.
	misspec atomic.Uint64
	segBase uint64
	// trackWrites enables per-worker write logs for a workload with a cell
	// map (workerLocal.dlog, read by control after quiesce).
	trackWrites bool
	// headOnly is the run's chunk-tail-unchecked seam (chunkTailSkipper).
	headOnly bool

	// The guard's inline measurement, and its scratch: the sampled tasks'
	// log entries.
	meter  engine.Probe
	sample []taskEntry
}

// workerLocal is one worker's private state. Signatures, watermark vectors
// and log entries come from arenas that are recycled when the segment ends
// — committed or aborted, every entry of a finished segment is dead — and
// the counter is plain, folded into Stats at quiesce.
type workerLocal struct {
	sigs    [][]signature.Signature // blocks of sigBlock
	wms     [][]uint64              // watermark blocks, workers*sigBlock each
	taken   int                     // signatures handed out this segment
	wmTaken int                     // watermark vectors handed out this segment
	// ents holds the segment's entries; each request is a run of them.
	ents []taskEntry
	// dlog accumulates the worker's tracked writes across the segment
	// (addresses in order, possibly with duplicates).
	dlog            []uint64
	rangeStalls     int64
	run, runBarrier func() // the worker's phases, bound once
	_               [64]byte
}

// shardLocal is one checker shard's private state.
type shardLocal struct {
	queues   []*queue.SPSC[request] // the rings this shard drains
	finished []bool
	run      func()

	checkRequests, comparisons, prefilterChecks, prefilterHits int64
	_                                                          [64]byte
}

type paddedU64 struct {
	v atomic.Uint64
	_ [56]byte
}

type paddedI64 struct {
	v atomic.Int64
	_ [56]byte
}

// misspeculation reasons.
const (
	misspecNone int32 = iota
	misspecConflict
	misspecPanic
	misspecInjected
	misspecTimeout
)

// sigBlock is how many per-task signatures a worker acquires per batch
// allocation (signature.NewBatch), and how many per-chunk watermark vectors
// per block of that arena, so allocation cost is O(1/sigBlock) per task in
// a runtime's first segments and zero once its arenas have grown.
const sigBlock = 64

// stateOn returns rt's SPECCROSS state.
func stateOn(rt *engine.Runtime, workers int) *state {
	if workers != rt.Workers() {
		panic(fmt.Sprintf("speccross: %d workers asked of a runtime with %d", workers, rt.Workers()))
	}
	return rt.State(stateKey{}, func() any {
		st := &state{
			rt:    rt,
			pos:   make([]paddedU64, workers),
			done:  make([]paddedI64, workers),
			local: make([]workerLocal, workers),
			// The probe's, sized for what it keeps: two sampled epochs' entries.
			sample: make([]taskEntry, 0, 2*sampleTasks),
		}
		st.chk.rows = make([]checkerRow, workers)
		for tid := range st.local {
			tid := tid
			st.local[tid].run = func() { st.specWorker(tid) }
			st.local[tid].runBarrier = func() { st.barrierWorker(tid) }
		}
		return st
	}).(*state)
}

// Forget drops what the last run handed the state — workload, config,
// recorder, and with the workload the claim that the checkpoint image is
// its — so a runtime parked in the engine pool pins buffers only.
func (st *state) Forget() {
	st.w, st.cfg, st.rec, st.baseFor = nil, Config{}, nil, nil
}

// aborted reports whether the segment in progress has been flagged.
func (st *state) aborted() bool { return st.misspec.Load() != st.segBase }

// flag abandons the segment in progress for the given reason, unless it
// already was.
func (st *state) flag(reason int32) { st.misspec.CompareAndSwap(st.segBase, st.segBase|uint64(reason)) }

// ensureBase makes the base image current for w, capturing the whole
// state in one bulk copy only when the cached image is for another
// workload, predates an untracked change of the state, or was left stale
// by a commit of a workload with no cell map.
func (st *state) ensureBase(w Workload) {
	n := w.StateLen()
	if st.baseVersion == st.rt.StateVersion() && len(st.base) == n && sameWorkload(st.baseFor, w) {
		return
	}
	if cap(st.base) < n {
		st.base = make([]int64, n)
	}
	st.base = st.base[:n]
	st.dirty.resize(n)
	w.LoadCells(0, st.base)
	st.baseFor, st.baseVersion = w, st.rt.StateVersion()
}

// sameWorkload reports whether a and b are the same workload object. Only
// pointers are compared: anything else just has its image rebuilt.
func sameWorkload(a, b Workload) bool {
	if a == nil || b == nil {
		return false
	}
	t := reflect.TypeOf(a)
	return t.Kind() == reflect.Pointer && t == reflect.TypeOf(b) && a == b
}

// dirtyCellSkipper is the seam of the chaos harness's skip-dirty-cell
// mutation. A workload whose SkipDirtyCell reports true gets a broken
// checkpointer: every commit and every rollback leaves out the highest
// dirty cell, so the base image or the rolled-back state keeps a wrong
// value there. The harness must catch it; nothing else implements this.
type dirtyCellSkipper interface{ SkipDirtyCell() bool }

// chunkTailSkipper is the seam of the chaos harness's chunk-tail-unchecked
// mutation. A workload whose SkipChunkTail reports true gets a broken
// checker: of each chunk's entries it logs and compares only the first, so
// a conflict of any later task of a chunk goes unseen. The harness must
// catch it; nothing else implements this.
type chunkTailSkipper interface{ SkipChunkTail() bool }

// copyDirty marks the state cells the finished segment's write logs cover
// under cellOf — every cell when cellOf is nil — and copies each run of
// them: from the state into the base image to commit, or from the image
// back into the state to roll back. It returns how many distinct cells
// that was.
func (st *state) copyDirty(w Workload, cellOf func(uint64) (uint64, uint64), commit bool) (cells int64) {
	d := &st.dirty
	if cellOf == nil {
		d.mark(0, d.n)
	} else {
		for i := range st.local {
			for _, a := range st.local[i].dlog {
				d.mark(cellOf(a))
			}
		}
	}
	cells = d.count()
	if st.skipCell {
		d.dropHighest()
	}
	for lo, hi := d.next(0); lo < hi; lo, hi = d.next(hi) {
		if commit {
			w.LoadCells(lo, st.base[lo:hi])
		} else {
			w.StoreCells(lo, st.base[lo:hi])
		}
	}
	d.empty()
	return cells
}

// fold adds the per-thread counters to stats and zeroes them. Every thread
// is quiescent.
func (st *state) fold(stats *Stats) {
	for i := range st.local {
		l := &st.local[i]
		stats.RangeStalls += l.rangeStalls
		l.rangeStalls = 0
	}
	for i := range st.shards {
		s := &st.shards[i]
		stats.CheckRequests += s.checkRequests
		stats.Comparisons += s.comparisons
		stats.PrefilterChecks += s.prefilterChecks
		stats.PrefilterHits += s.prefilterHits
		s.checkRequests, s.comparisons, s.prefilterChecks, s.prefilterHits = 0, 0, 0, 0
	}
}

// beginSegment resets the state for speculative epochs [start, end). Every
// thread is quiescent; the phase posts that follow publish the writes. The
// rings need no reset: the shards drained each one to its end token.
func (st *state) beginSegment(w Workload, cfg *Config, start, end int, trackWrites bool) {
	nw := len(st.local)
	st.w, st.rec, st.start, st.end, st.trackWrites = w, cfg.Trace, start, end, trackWrites
	st.segBase += 1 << 8
	st.misspec.Store(st.segBase)

	st.prefix = append(st.prefix[:0], 0)
	for e := start; e < end; e++ {
		st.prefix = append(st.prefix, st.prefix[e-start]+int64(w.Tasks(e)))
	}
	for i := 0; i < nw; i++ {
		st.pos[i].v.Store(packET(int32(start), 0))
		st.done[i].v.Store(-1)
	}

	if st.queueCap != cfg.QueueCap {
		st.queueCap = cfg.QueueCap
		st.queues = make([]*queue.SPSC[request], nw)
		for i := range st.queues {
			st.queues[i] = queue.NewSPSC[request](cfg.QueueCap)
		}
		st.shards = nil
	}
	// Each shard drains a subset of the rings against the row-sharded log
	// (CheckerShards = 1 is the paper's single checker thread).
	if len(st.shards) != cfg.CheckerShards {
		st.shards = make([]shardLocal, cfg.CheckerShards)
		for sh := range st.shards {
			sh := sh
			s := &st.shards[sh]
			for qi := sh; qi < nw; qi += cfg.CheckerShards {
				s.queues = append(s.queues, st.queues[qi])
			}
			s.finished = make([]bool, len(s.queues))
			s.run = func() { st.chk.run(st, sh) }
		}
	}
	st.useKind(cfg.SigKind)
	for i := range st.local {
		l := &st.local[i]
		l.taken, l.wmTaken, l.ents = 0, 0, l.ents[:0]
		if l.dlog == nil {
			// Non-nil even when empty: a nil Signature.WriteLog means
			// "do not log".
			l.dlog = make([]uint64, 0, 256)
		}
		l.dlog = l.dlog[:0]
	}
	st.chk.reset(cfg.SigKind, start, end)
}

// useKind makes the signature arenas and the checker's unions of the given
// kind, dropping those of another.
func (st *state) useKind(kind signature.Kind) {
	if st.kind == kind {
		return
	}
	st.kind = kind
	for i := range st.local {
		st.local[i].sigs, st.local[i].wms = nil, nil
	}
	st.chk.dropUnions()
}

// runSpeculative executes epochs [start, end) without barriers and returns
// misspecNone if the segment committed cleanly, or the misspec* code that
// aborted it. With trackWrites set, each worker's write log for the
// segment is left in its workerLocal.dlog.
func (st *state) runSpeculative(w Workload, cfg *Config, start, end int, trackWrites bool) (reason int32) {
	st.beginSegment(w, cfg, start, end, trackWrites)

	if cfg.SpecTimeout > 0 {
		base := st.segBase
		timer := time.AfterFunc(cfg.SpecTimeout, func() {
			st.misspec.CompareAndSwap(base, base|uint64(misspecTimeout))
		})
		defer timer.Stop()
	}

	for sh := range st.shards {
		st.rt.GoAux(sh, "speccross", "checker", st.shards[sh].run)
	}
	for tid := range st.local {
		st.rt.Go(tid, "speccross", "worker", st.local[tid].run)
	}
	st.rt.Wait()
	return int32(st.misspec.Load() - st.segBase)
}

// take hands the worker its next signature of the segment, growing the
// arena by one block when it runs out.
func (l *workerLocal) take(kind signature.Kind) *signature.Signature {
	b, i := l.taken/sigBlock, l.taken%sigBlock
	if b == len(l.sigs) {
		l.sigs = append(l.sigs, signature.NewBatch(kind, sigBlock))
	}
	l.taken++
	sig := &l.sigs[b][i]
	sig.Reset() // recycled from an earlier segment
	return sig
}

// takeWM hands the worker its next watermark vector of the segment, one
// per chunk, growing the arena by one block when it runs out.
func (l *workerLocal) takeWM(nw int) []uint64 {
	b, i := l.wmTaken/sigBlock, l.wmTaken%sigBlock
	if b == len(l.wms) {
		l.wms = append(l.wms, make([]uint64, nw*sigBlock))
	}
	l.wmTaken++
	return l.wms[b][i*nw : (i+1)*nw : (i+1)*nw]
}

// ChunkTasks is how many consecutive tasks of an epoch of n tasks one chunk
// of a speculative segment holds when the epoch's speculative distance is
// dist and nw workers share it: half the distance shared among the workers, so that the chunks all
// of them run at once span half of it; at least one task; and never more
// than an even share of the epoch, so that no worker sits the epoch out.
// With no distance every chunk is one task.
func ChunkTasks(dist int64, n, nw int) int {
	if dist <= 0 {
		return 1
	}
	return int(max(1, min(dist/2/int64(nw), int64((n+nw-1)/nw))))
}

// specWorker executes this thread's share of every epoch in the segment,
// publishing positions, signatures and checking requests (the worker loop of
// Fig 4.7). Its share is block-cyclic: the epoch's tasks are cut into
// chunks of ChunkTasks consecutive tasks, and chunk c is worker c mod nw's.
// Each chunk publishes its position, passes the range gate, reads the
// watermark vector, publishes its completion and sends its request once;
// every task in it still records its own signature and its own entry.
func (st *state) specWorker(tid int) {
	w, cfg, nw, start, end := st.w, &st.cfg, len(st.local), st.start, st.end
	q, tt, loc := st.queues[tid], st.rec.Lane(int32(tid)), &st.local[tid]

	// curSig points at the in-flight task's signature so the panic path
	// below can harvest writes recorded before the fault (the workload
	// records each write before performing it, so a cell a faulting task
	// managed to dirty is always in the log).
	var curSig *signature.Signature

	defer func() {
		if r := recover(); r != nil {
			// A fault during speculative execution (the segfault trigger of
			// §4.2.2): flag misspeculation and shut down this worker.
			if st.trackWrites && curSig != nil && curSig.WriteLog != nil {
				loc.dlog = curSig.WriteLog
			}
			st.flag(misspecPanic)
			st.produceReq(q, request{end: true}, tid, tt)
		}
	}()

	for e := start; e < end; e++ {
		n := w.Tasks(e)
		dist := cfg.SpecDistance
		if cfg.SpecDistanceOf != nil {
			dist = cfg.SpecDistanceOf(e)
		}
		k := ChunkTasks(dist, n, nw)
		base := st.prefix[e-start]
		for first := tid * k; first < n; first += nw * k {
			last := min(first+k, n) - 1
			if st.aborted() {
				st.produceReq(q, request{end: true}, tid, tt)
				return
			}
			// Publish position, gate, then read the other threads' positions:
			// the chunk's watermark vector (Fig 4.6). The position goes out
			// before the gate because the gate may publish, through done,
			// that everything of this worker below the chunk is complete; a
			// worker let through on that must also read a position past
			// those tasks, or the checker would take them for still running
			// and report an overlap that never happened. The gate waits on
			// the chunk's last task, so every task of it is within the
			// distance of what the watermarks name.
			st.pos[tid].v.Store(packET(int32(e), int32(first)))
			if st.stallOnRange(tid, base+int64(first), base+int64(last), dist, tt) {
				st.produceReq(q, request{end: true}, tid, tt)
				return
			}
			wm := loc.takeWM(nw)
			for o := 0; o < nw; o++ {
				if o != tid {
					wm[o] = st.pos[o].v.Load()
				}
			}

			at := len(loc.ents)
			for t := first; t <= last; t++ {
				global := base + int64(t)
				sig := loc.take(cfg.SigKind)
				tt.Emit(trace.KindTaskStart, int64(e), int64(t), global)
				if st.trackWrites {
					sig.WriteLog = loc.dlog
				}
				curSig = sig
				w.Run(e, t, tid, sig)
				curSig = nil
				if st.trackWrites {
					loc.dlog = sig.WriteLog
					sig.WriteLog = nil
				}
				// Seal before publishing: checker shards compare against the
				// logged signature concurrently, which must be read-only.
				sig.Seal()
				tt.Emit(trace.KindTaskEnd, int64(e), int64(t), global)
				loc.ents = append(loc.ents, taskEntry{tid: int32(tid), pos: packET(int32(e), int32(t)), wm: wm, sig: sig})
			}
			// The chunk is done: its position moves one past its last task
			// before done says so, so a worker that the new done lets
			// through reads a watermark past the whole chunk. A one-task
			// chunk's position already names its last task.
			if last > first {
				st.pos[tid].v.Store(packET(int32(e), int32(last+1)))
			}
			st.done[tid].v.Store(base + int64(last))
			// The checker reads the chunk's entries and never writes them; the
			// cap keeps it off the arena past them.
			ents := loc.ents[at:len(loc.ents):len(loc.ents)]
			st.produceReq(q, request{entries: ents}, tid, tt)

			if cfg.ForceMisspecEpoch == e {
				st.flag(misspecInjected)
			}
		}
	}
	// Mark this worker as past the segment so range gating never waits on
	// a thread that has no tasks left.
	st.done[tid].v.Store(1 << 62)
	st.produceReq(q, request{end: true}, tid, tt)
}

// produceReq forwards one checking request, recording a queue-full backoff
// episode on tt when the checker has fallen behind and the ring is full
// (checker pressure, §5.2). If the runtime stopped — the draining shard
// died — the request is dropped: the run is being torn down.
func (st *state) produceReq(q *queue.SPSC[request], r request, owner int, tt *trace.ThreadTrace) {
	if q.TryProduce(r) {
		return
	}
	tt.Emit(trace.KindQueueFullBegin, int64(owner), 0, 0)
	for spins := 1; ; spins++ {
		if q.TryProduce(r) {
			tt.Emit(trace.KindQueueFullEnd, int64(owner), 0, 0)
			return
		}
		if !st.rt.Pause(spins) {
			return
		}
	}
}

// stallOnRange blocks while the last task of the chunk of global tasks
// first..last would be SpecDistance or more tasks ahead of the laggard (the enter_task gating
// of Table 4.1, taken once per chunk). It reports true if the segment
// misspeculated while waiting.
func (st *state) stallOnRange(tid int, first, last, dist int64, tt *trace.ThreadTrace) (aborted bool) {
	if dist <= 0 {
		return false
	}
	stalled := false
	for spins := 0; ; spins++ {
		min := int64(1<<62 - 1)
		for o := range st.done {
			if o == tid {
				continue
			}
			if d := st.done[o].v.Load(); d < min {
				min = d
			}
		}
		if last-min < dist {
			// Strictly within the profiled window: any pair separated by
			// at least the minimum dependence distance is ordered, so a
			// faithful profile guarantees misspeculation-free execution.
			if stalled {
				tt.Emit(trace.KindRangeStallEnd, last, dist, 0)
			}
			return false
		}
		if st.aborted() || !st.rt.Pause(spins) {
			if stalled {
				tt.Emit(trace.KindRangeStallEnd, last, dist, 1)
			}
			return true
		}
		if !stalled {
			stalled = true
			// done[tid] so far names the end of this worker's last chunk,
			// but every task of this worker below first is complete, and
			// the numbers in between belong to other workers. Publish that
			// frontier before waiting, or two workers can each wait for the
			// other to pass a number neither owns. It only ever moves up,
			// and among stalled workers the one with the lowest chunk then
			// sees every other frontier at or past its last task and
			// proceeds: chunks are contiguous and never longer than the
			// distance.
			st.done[tid].v.Store(first - 1)
			st.local[tid].rangeStalls++
			tt.Emit(trace.KindRangeStallBegin, last, dist, 0)
		}
	}
}
