package speccross

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crossinv/internal/runtime/barrier"
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
// Checkpoints are full snapshots or — for DeltaWorkloads under the default
// CkptAuto — incremental: the engine keeps one base image of the state and,
// at each commit, refreshes only the cells the segment's tracked write set
// touched; a rollback likewise rewrites only the dirty cells. This is the
// checkpoint substitution of §4.2.2: checkpoint and recovery cost are
// bounded by the write set, not the heap.
func Run(w Workload, cfg Config) Stats {
	var stats Stats
	// Segment control (checkpoint, rollback, recovery sequencing) runs on
	// the calling goroutine; label it so profile samples of Snapshot and
	// Restore attribute to the control lane. Worker and checker goroutines
	// relabel themselves.
	trace.Labeled("speccross", "control", func() {
		stats = run(w, cfg)
	})
	return stats
}

func run(w Workload, cfg Config) Stats {
	cfg.fill()
	var stats Stats
	ctl := cfg.Trace.Lane(trace.LaneControl)

	irr, hasIrr := w.(Irreversibler)
	epochs := w.Epochs()

	dw, hasDelta := w.(DeltaWorkload)
	hasDelta = hasDelta && dw.StateLen() > 0
	useDelta := false
	switch cfg.Checkpoint {
	case CkptFull:
	case CkptIncremental:
		if !hasDelta {
			panic("speccross: Config.Checkpoint is CkptIncremental but the workload does not implement DeltaWorkload (or declares StateLen 0)")
		}
		useDelta = true
	default:
		useDelta = hasDelta
	}

	// Checkpoint state. Full mode keeps the latest snapshot; incremental
	// mode keeps a base image of every cell plus a generation-stamped
	// visited array, so per-segment dirty-set dedup is O(dirty) with no
	// O(heap) clearing between segments.
	var snapshot any
	var base, stamp []int64
	var gen int64
	rebuildBase := func() {
		if base == nil {
			base = make([]int64, dw.StateLen())
		}
		for i := range base {
			base[i] = dw.ReadCell(uint64(i))
		}
	}
	if useDelta {
		rebuildBase()
		stamp = make([]int64, len(base))
	} else {
		snapshot = w.Snapshot()
	}

	// checkpointFull re-captures the whole state: the full-snapshot mode,
	// and the incremental mode's fallback after untracked (nil-signature)
	// execution — barrier recovery and irreversible epochs.
	checkpointFull := func(end int) {
		if useDelta {
			rebuildBase()
		} else {
			snapshot = w.Snapshot()
		}
		stats.Checkpoints++
		ctl.Emit(trace.KindCheckpoint, int64(end), 0, 0)
	}
	// checkpointDirty refreshes the base image for the committed segment's
	// tracked write set only.
	checkpointDirty := func(end int, dirty [][]uint64) {
		if !useDelta {
			checkpointFull(end)
			return
		}
		gen++
		cells := int64(0)
		for _, dl := range dirty {
			for _, a := range dl {
				lo, hi := dw.AddrCells(a)
				if hi > uint64(len(base)) {
					hi = uint64(len(base)) // sentinel / out-of-range addresses
				}
				for c := lo; c < hi; c++ {
					if stamp[c] == gen {
						continue // already refreshed this segment
					}
					stamp[c] = gen
					base[c] = dw.ReadCell(c)
					cells++
				}
			}
		}
		stats.Checkpoints++
		stats.DeltaCheckpoints++
		stats.DeltaCells += cells
		ctl.Emit(trace.KindCheckpoint, int64(end), 0, 0)
		ctl.Emit(trace.KindCkptDelta, cells, int64(end), 0)
	}
	// restore rolls the state back to the segment's checkpoint: a full
	// Restore, or a rewrite of exactly the dirty cells.
	restore := func(start int, dirty [][]uint64) {
		if !useDelta {
			w.Restore(snapshot)
			ctl.Emit(trace.KindRestore, int64(start), 0, 0)
			return
		}
		gen++
		cells := int64(0)
		for _, dl := range dirty {
			for _, a := range dl {
				lo, hi := dw.AddrCells(a)
				if hi > uint64(len(base)) {
					hi = uint64(len(base))
				}
				for c := lo; c < hi; c++ {
					if stamp[c] == gen {
						continue
					}
					stamp[c] = gen
					dw.WriteCell(c, base[c])
					cells++
				}
			}
		}
		stats.DeltaRestores++
		ctl.Emit(trace.KindRestore, int64(start), 0, 0)
		ctl.Emit(trace.KindDeltaRestore, cells, int64(start), 0)
	}

	for start := 0; start < epochs; {
		// An irreversible epoch forms its own non-speculative segment.
		if hasIrr && irr.Irreversible(start) {
			runBarriers(w, cfg.Workers, start, start+1, cfg.Trace)
			checkpointFull(start + 1)
			start++
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

		ctl.Emit(trace.KindEpochBegin, int64(start), int64(end), 0)
		if ok, reason, dirty := runSpeculative(w, &cfg, start, end, &stats, useDelta); ok {
			ctl.Emit(trace.KindEpochCommit, int64(end-start), int64(start), int64(end))
			checkpointDirty(end, dirty)
			stats.Epochs += int64(end - start)
		} else {
			stats.Misspeculations++
			ctl.Emit(trace.KindMisspec, int64(reason), int64(start), int64(end))
			ctl.Emit(trace.KindEpochAbort, int64(start), int64(end), 0)
			restore(start, dirty)
			ctl.Emit(trace.KindRecoveryBegin, int64(start), int64(end), 0)
			runBarriers(w, cfg.Workers, start, end, cfg.Trace)
			stats.ReexecutedEpochs += int64(end - start)
			ctl.Emit(trace.KindRecoveryEnd, int64(end-start), int64(start), int64(end))
			// Recovery ran untracked (nil signatures), so the incremental
			// path re-captures the whole base image here.
			checkpointFull(end)
		}
		start = end
	}
	return stats
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
// rec is equivalent to RunBarriers.
func RunBarriersTraced(w Workload, workers int, rec *trace.Recorder) *barrier.Barrier {
	if workers <= 0 {
		panic(fmt.Sprintf("speccross: invalid worker count %d", workers))
	}
	return runBarriers(w, workers, 0, w.Epochs(), rec)
}

func runBarriers(w Workload, workers, start, end int, rec *trace.Recorder) *barrier.Barrier {
	bar := barrier.New(workers)
	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			trace.Labeled("barrier", "worker", func() {
				tt := rec.Lane(int32(tid))
				for e := start; e < end; e++ {
					n := w.Tasks(e)
					for t := tid; t < n; t += workers {
						tt.Emit(trace.KindIterStart, int64(e), int64(t), 0)
						w.Run(e, t, tid, nil)
						tt.Emit(trace.KindIterEnd, int64(e), int64(t), 0)
					}
					tt.Emit(trace.KindBarrierWaitBegin, int64(e), 0, 0)
					bar.Wait()
					tt.Emit(trace.KindBarrierWaitEnd, int64(e), 0, 0)
				}
			})
		}(tid)
	}
	wg.Wait()
	return bar
}

// taskEntry is one logged task execution: its signature plus the watermark
// vector (other threads' positions when the task began), which the checker
// needs to pair overlapping tasks in both directions.
type taskEntry struct {
	tid int32
	pos uint64   // packed (epoch, task)
	wm  []uint64 // packed watermark per worker (own slot unused)
	sig *signature.Signature
}

// request is one message on a worker→checker queue.
type request struct {
	entry taskEntry
	end   bool
}

// specState is the shared state of one speculative segment.
type specState struct {
	cfg   *Config
	start int32 // first epoch of the segment
	// pos[tid] is the packed (epoch, task) each worker most recently began.
	pos []paddedU64
	// done[tid] is worker tid's completion frontier for range gating: every
	// task of the worker numbered at or below it (globally) is complete. It
	// is the last completed task, or one below the task the worker is
	// stalled at.
	done []paddedI64
	// prefix[e-start] is the global task number of the first task of epoch e.
	prefix []int64
	// misspec is set (with a reason) when the segment must be abandoned.
	misspec atomic.Int32
	// trackWrites enables per-worker dirty logs for incremental
	// checkpointing; dirty[tid] is worker tid's accumulated write log,
	// published before the worker exits (and read by the engine only
	// after all workers joined).
	trackWrites bool
	dirty       [][]uint64
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
// allocation (signature.NewBatch); the watermark vectors are carved from a
// matching arena, so per-task allocation cost is O(1/sigBlock).
const sigBlock = 64

// runSpeculative executes epochs [start, end) without barriers and reports
// whether the segment committed cleanly; on misspeculation, reason is the
// misspec* code that triggered the abort. With trackWrites set, dirty holds
// each worker's write log for the segment (tracked addresses, in order,
// possibly with duplicates).
func runSpeculative(w Workload, cfg *Config, start, end int, stats *Stats, trackWrites bool) (ok bool, reason int32, dirty [][]uint64) {
	nw := cfg.Workers
	st := &specState{cfg: cfg, start: int32(start), trackWrites: trackWrites}
	st.pos = make([]paddedU64, nw)
	st.done = make([]paddedI64, nw)
	st.prefix = make([]int64, end-start+1)
	st.dirty = make([][]uint64, nw)
	for e := start; e < end; e++ {
		st.prefix[e-start+1] = st.prefix[e-start] + int64(w.Tasks(e))
	}
	for i := 0; i < nw; i++ {
		st.pos[i].v.Store(packET(int32(start), 0))
		st.done[i].v.Store(-1)
	}

	queues := make([]*queue.SPSC[request], nw)
	for i := range queues {
		queues[i] = queue.NewSPSC[request](cfg.QueueCap)
	}

	var timer *time.Timer
	if cfg.SpecTimeout > 0 {
		timer = time.AfterFunc(cfg.SpecTimeout, func() {
			st.misspec.CompareAndSwap(misspecNone, misspecTimeout)
		})
		defer timer.Stop()
	}

	// Spawn the checker shard(s): each drains its queue subset against the
	// row-sharded log (CheckerShards = 1 is the paper's single checker
	// thread).
	chk := newChecker(nw, cfg.SigKind, start, end)
	var checkers sync.WaitGroup
	for sh := 0; sh < cfg.CheckerShards; sh++ {
		var subset []*queue.SPSC[request]
		for qi := sh; qi < nw; qi += cfg.CheckerShards {
			subset = append(subset, queues[qi])
		}
		checkers.Add(1)
		go func(sh int, subset []*queue.SPSC[request]) {
			defer checkers.Done()
			trace.Labeled("speccross", "checker", func() {
				chk.run(subset, st, stats, cfg.Trace.Lane(trace.LaneCheckerBase-int32(sh)))
			})
		}(sh, subset)
	}

	var wg sync.WaitGroup
	for tid := 0; tid < nw; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			trace.Labeled("speccross", "worker", func() {
				specWorker(w, st, tid, start, end, queues[tid], stats, cfg.Trace.Lane(int32(tid)))
			})
		}(tid)
	}
	wg.Wait()
	checkers.Wait()

	r := st.misspec.Load()
	return r == misspecNone, r, st.dirty
}

// specWorker executes this thread's share of every epoch in the segment,
// publishing positions, signatures and checking requests (the worker loop of
// Fig 4.7).
func specWorker(w Workload, st *specState, tid, start, end int, q *queue.SPSC[request], stats *Stats, tt *trace.ThreadTrace) {
	nw := st.cfg.Workers

	// dlog accumulates this worker's tracked writes across the segment;
	// curSig points at the in-flight task's signature so the panic path
	// below can harvest writes recorded before the fault (the workload
	// records each write before performing it, so a cell a faulting task
	// managed to dirty is always in the log).
	var dlog []uint64
	var curSig *signature.Signature
	if st.trackWrites {
		dlog = make([]uint64, 0, 256)
	}

	defer func() {
		if r := recover(); r != nil {
			// A fault during speculative execution (the segfault trigger of
			// §4.2.2): flag misspeculation and shut down this worker.
			if st.trackWrites && curSig != nil && curSig.WriteLog != nil {
				st.dirty[tid] = curSig.WriteLog
			}
			st.misspec.CompareAndSwap(misspecNone, misspecPanic)
			produceReq(q, request{end: true}, tid, tt)
		}
	}()

	// Per-task signatures and watermark vectors come from block arenas.
	var sigs []signature.Signature
	var wmArena []uint64
	sigi := sigBlock

	for e := start; e < end; e++ {
		n := w.Tasks(e)
		for t := tid; t < n; t += nw {
			if st.misspec.Load() != misspecNone {
				produceReq(q, request{end: true}, tid, tt)
				return
			}
			global := st.prefix[e-start] + int64(t)
			dist := st.cfg.SpecDistance
			if st.cfg.SpecDistanceOf != nil {
				dist = st.cfg.SpecDistanceOf(e)
			}
			// Publish position, gate, then read the other threads' positions:
			// the watermark vector for this task (Fig 4.6). The position goes
			// out before the gate because the gate may publish, through
			// done, that everything of this worker below the task is
			// complete; a worker let through on that must also read a
			// position past those tasks, or the checker would take them for
			// still running and report an overlap that never happened.
			st.pos[tid].v.Store(packET(int32(e), int32(t)))
			if stallOnRange(st, tid, global, dist, stats, tt) {
				produceReq(q, request{end: true}, tid, tt)
				return
			}
			if sigi == sigBlock {
				sigs = signature.NewBatch(st.cfg.SigKind, sigBlock)
				wmArena = make([]uint64, nw*sigBlock)
				sigi = 0
			}
			sig := &sigs[sigi]
			wm := wmArena[sigi*nw : (sigi+1)*nw : (sigi+1)*nw]
			sigi++
			for o := 0; o < nw; o++ {
				if o != tid {
					wm[o] = st.pos[o].v.Load()
				}
			}

			tt.Emit(trace.KindTaskStart, int64(e), int64(t), global)
			if st.trackWrites {
				sig.WriteLog = dlog
			}
			curSig = sig
			w.Run(e, t, tid, sig)
			curSig = nil
			if st.trackWrites {
				dlog = sig.WriteLog
				sig.WriteLog = nil
				st.dirty[tid] = dlog
			}
			// Seal before publishing: checker shards compare against the
			// logged signature concurrently, which must be read-only.
			sig.Seal()
			st.done[tid].v.Store(global)
			atomic.AddInt64(&stats.Tasks, 1)
			tt.Emit(trace.KindTaskEnd, int64(e), int64(t), global)

			produceReq(q, request{entry: taskEntry{
				tid: int32(tid), pos: packET(int32(e), int32(t)), wm: wm, sig: sig,
			}}, tid, tt)

			if st.cfg.ForceMisspecEpoch == e {
				st.misspec.CompareAndSwap(misspecNone, misspecInjected)
			}
		}
	}
	// Mark this worker as past the segment so range gating never waits on
	// a thread that has no tasks left.
	st.done[tid].v.Store(1 << 62)
	produceReq(q, request{end: true}, tid, tt)
}

// produceReq forwards one checking request, recording a queue-full backoff
// episode on tt when the checker has fallen behind and the ring is full
// (checker pressure, §5.2). With tracing disabled it degrades to exactly
// queue.Produce.
func produceReq(q *queue.SPSC[request], r request, owner int, tt *trace.ThreadTrace) {
	if q.TryProduce(r) {
		return
	}
	tt.Emit(trace.KindQueueFullBegin, int64(owner), 0, 0)
	for spins := 1; ; spins++ {
		if q.TryProduce(r) {
			tt.Emit(trace.KindQueueFullEnd, int64(owner), 0, 0)
			return
		}
		queue.Backoff(spins)
	}
}

// stallOnRange blocks while this worker is more than SpecDistance tasks
// ahead of the laggard (the enter_task gating of Table 4.1). It reports true
// if the segment misspeculated while waiting.
func stallOnRange(st *specState, tid int, global, dist int64, stats *Stats, tt *trace.ThreadTrace) (aborted bool) {
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
		if global-min < dist {
			// Strictly within the profiled window: any pair separated by
			// at least the minimum dependence distance is ordered, so a
			// faithful profile guarantees misspeculation-free execution.
			if stalled {
				tt.Emit(trace.KindRangeStallEnd, global, dist, 0)
			}
			return false
		}
		if st.misspec.Load() != misspecNone {
			if stalled {
				tt.Emit(trace.KindRangeStallEnd, global, dist, 1)
			}
			return true
		}
		if !stalled {
			stalled = true
			// done[tid] so far names this worker's last completed task, but
			// every task of this worker below global is complete, and the
			// numbers in between belong to other workers. Publish that
			// frontier before waiting, or two workers can each wait for the
			// other to pass a number neither owns. It only ever moves up, and
			// among stalled workers the one with the smallest next task then
			// sees every other frontier at or above it and proceeds.
			st.done[tid].v.Store(global - 1)
			atomic.AddInt64(&stats.RangeStalls, 1)
			tt.Emit(trace.KindRangeStallBegin, global, dist, 0)
		}
		queue.Backoff(spins)
	}
}
