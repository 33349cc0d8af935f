// Package domore implements the DOMORE runtime engine (Chapter 3): the first
// non-speculative automatic parallelization runtime to exploit
// cross-invocation parallelism using runtime information.
//
// A scheduler thread executes the outer loop's sequential region, redundantly
// computes the addresses each inner-loop iteration will access (the
// computeAddr slice of §3.3.4), detects dynamic dependences through shadow
// memory (§3.2.1), and forwards synchronization conditions ⟨depTid,
// depIterNum⟩ followed by a dispatch record over per-worker lock-free queues
// (§3.2.2, Algorithms 1–2). Workers stall only on the conditions they
// receive — iterations from consecutive invocations overlap freely unless a
// dependence actually manifests, replacing the global barrier of Fig 3.2(a)
// with the pipelined plan of Fig 3.2(c).
//
// RunSharded spreads the scheduler's dependence detection across lanes; with
// Options.ConcurrentAddr and one lane per worker it is the duplicated
// scheduler of §3.4 (Figs 3.8–3.9), every lane replaying the address
// computation and assignment itself.
package domore

import (
	"fmt"
	"sync/atomic"

	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/queue"
	"crossinv/internal/runtime/sched"
	"crossinv/internal/runtime/shadow"
	"crossinv/internal/runtime/trace"
)

// Workload is the code region DOMORE parallelizes: an outer loop whose body
// is a sequential section followed by one parallelizable inner-loop
// invocation (the CG loop nest of Fig 3.1 is the canonical shape).
type Workload interface {
	// Invocations reports the number of inner-loop invocations (outer-loop
	// trip count).
	Invocations() int
	// Iterations reports the inner-loop trip count for invocation inv.
	// It is called after Sequential(inv), so bounds computed by the
	// sequential region are visible.
	Iterations(inv int) int
	// Sequential executes the outer-loop code preceding invocation inv
	// (statements A–C in the CG example). It runs on the scheduler thread.
	Sequential(inv int)
	// ComputeAddr appends the shared-memory addresses iteration (inv, iter)
	// will access to buf and returns it. This is the compiler-generated
	// computeAddr slice: it must be side-effect free (§3.3.4 aborts the
	// transformation otherwise). The caller owns buf, so implementations
	// stay allocation-free and safe for the concurrent scheduler lanes of
	// RunSharded with ConcurrentAddr (§3.4), which call ComputeAddr from
	// every lane.
	ComputeAddr(inv, iter int, buf []uint64) []uint64
	// Execute runs the inner-loop body for iteration (inv, iter) on worker
	// tid. Under a multi-owner policy (LOCALWRITE) it is invoked once per
	// owner and must restrict its writes to addresses owned by tid.
	Execute(inv, iter, tid int)
}

// Options configures a DOMORE execution.
type Options struct {
	// Workers is the number of worker threads (the scheduler is extra).
	Workers int
	// Policy assigns iterations to workers; defaults to round-robin.
	Policy sched.Policy
	// NewPolicy, when set, constructs a thread-private policy instance for
	// each scheduler lane of RunSharded with ConcurrentAddr (lanes must not
	// share policy scratch state). Defaults to fresh round-robin instances;
	// set it when using LOCALWRITE or a custom policy there.
	NewPolicy func() sched.Policy
	// QueueCap is the per-worker condition-queue capacity (default 1024).
	QueueCap int
	// Trace, when non-nil, receives engine events: the scheduler emits on
	// trace.LaneScheduler (per-invocation epoch spans, schedule/addr-check/
	// sync-cond/dispatch records, queue-depth samples) and worker tid emits
	// on lane tid (iteration spans, stall spans carrying the ⟨depTid,
	// depIterNum⟩ condition, queue-empty backoff episodes). A nil Trace
	// compiles the hot path down to nil-receiver no-ops. RunSharded
	// additionally emits one KindShardChunk per chunk per scheduler lane on
	// lanes trace.LaneShardBase - l.
	Trace *trace.Recorder

	// Lanes is the number of scheduler lanes RunSharded partitions shadow
	// memory across (default 4). Ignored by the other entry points.
	Lanes int
	// Batch is RunSharded's chunk size: the number of iterations scheduled
	// per lane handoff, and the granularity at which synchronization
	// conditions are batched onto the worker queues (default 256).
	Batch int
	// ConcurrentAddr lets RunSharded call ComputeAddr concurrently from
	// every scheduler lane (each lane redundantly computes the full
	// address set and keeps the addresses hashing to its shard), which
	// removes the serial address computation entirely. It requires the
	// documented ComputeAddr contract, which interpreter-backed workloads
	// sharing one replay environment (mtcg, speccrossgen's DomoreView) do
	// not meet. When false (the default), the driver computes each chunk's
	// addresses serially into a reused arena and the lanes perform only
	// the sharded dependence detection, which is always safe. With
	// ConcurrentAddr, a stateful Policy requires NewPolicy (each lane
	// replays assignments on a private instance).
	ConcurrentAddr bool
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		panic(fmt.Sprintf("domore: invalid worker count %d", o.Workers))
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
}

// Stats reports what the runtime engine observed; the experiments harness
// uses these counters for Table 5.2 and the figure captions.
//
// Concurrency contract (audited, enforced by the stats_race_test regression
// under -race and by the stats-atomic lint rule): no thread writes Stats
// while an engine runs. The scheduler (or sharded driver) counts into a
// Stats only it can see, workers and scheduler lanes count Stalls and
// LaneWaits in plain thread-private counters, and the control goroutine
// folds those in at quiesce, when every thread has finished its phase, so
// callers may read the returned Stats without synchronization.
type Stats struct {
	// Iterations is the total number of inner-loop iterations scheduled
	// (combined across invocations — the paper's global iteration numbers).
	Iterations int64
	// Dispatches counts (iteration, worker) pairs; equals Iterations under
	// single-owner policies and exceeds it under LOCALWRITE.
	Dispatches int64
	// SyncConditions counts ⟨depTid, depIterNum⟩ conditions forwarded — the
	// dynamic dependences that actually manifested across threads.
	SyncConditions int64
	// Stalls counts worker waits that found the dependence not yet
	// satisfied (i.e. the condition caused an actual pause).
	Stalls int64
	// AddrChecks counts shadow-memory lookups performed by the scheduler.
	AddrChecks int64
	// Batches counts batched queue publications by RunSharded's driver:
	// each is one batched flush of a worker's buffered conditions and
	// dispatches. Deterministic for a given workload and options (flushes
	// happen at chunk boundaries and when the iteration-order publication
	// invariant forces one); zero under the other entry points.
	Batches int64
	// LaneWaits counts chunk-handoff wait episodes in RunSharded's
	// scheduler lanes: a lane found its next chunk not yet published and
	// spun. Timing-dependent (like Stalls); zero under the other entry
	// points.
	LaneWaits int64
}

// message kinds carried on the scheduler→worker queues.
const (
	kindDep int32 = iota // wait until latestFinished[Tid] >= Iter
	kindRun              // execute (Inv, Index); then publish Iter as finished
	kindEnd              // worker shutdown (the END_TOKEN of §3.3.2)
)

// cond is one queue message. For kindDep, Tid/Iter carry the dependence;
// for kindRun, Iter is the combined iteration number and Inv/Index locate
// the loop iteration to execute.
type cond struct {
	Kind  int32
	Tid   int32
	Iter  int64
	Inv   int32
	Index int32
}

// Run executes the workload under DOMORE with a dedicated scheduler thread
// (the Fig 3.2(c) plan) and returns execution statistics. It runs on a
// runtime borrowed from the engine pool for the call and released on return.
func Run(w Workload, opts Options) Stats {
	opts.fill()
	rt := engine.Acquire(opts.Workers)
	defer rt.Release()
	return RunOn(rt, w, opts)
}

// RunOn is Run on the threads and state of rt, which must have been created
// for opts.Workers workers: the calling goroutine is the scheduler, the
// runtime's worker threads run Algorithm 2, and rings, progress words and
// the shadow store are reset, not rebuilt. If the scheduler or a
// worker panics, rt is closed and the panic continues on the caller.
func RunOn(rt *engine.Runtime, w Workload, opts Options) Stats {
	opts.fill()
	defer rt.Settle()
	st := stateOn(rt, &opts)
	st.begin(w, opts.Trace)
	for tid := range st.local {
		rt.Go(tid, "domore", "worker", st.local[tid].run)
	}
	var stats Stats
	rt.Labeled("domore", "scheduler", func() { st.schedule(&opts, &stats) })
	rt.Wait()
	st.fold(&stats)
	return stats
}

// paddedInt64 keeps each worker's latestFinished slot on its own cache line.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// stateKey is the key DOMORE's state is kept under in a runtime.
type stateKey struct{}

// state is what a runtime keeps for DOMORE between runs: the per-worker
// rings, progress words and counters, the shadow store, and the
// scheduler's scratch. A run resets it; the rings are rebuilt only when a
// different queue capacity is asked for.
type state struct {
	rt             *engine.Runtime
	queueCap       int
	queues         []*queue.SPSC[cond]
	latestFinished []paddedInt64
	local          []workerLocal
	shadow         *shadow.Sparse // Run's dependence-detection store, cleared per run
	roundRobin     sched.Policy   // the default Options.Policy (it keeps no state between runs)
	pending        [][]cond       // scheduler or driver: per-target conditions of the current iteration
	buf            []uint64       // scheduler or driver: ComputeAddr scratch
	sharded        *shardedRun    // RunShardedOn's driver state

	// The run in progress, written by the control goroutine before it posts
	// the worker phases.
	w   Workload
	rec *trace.Recorder
}

// workerLocal is one worker's private state. Its counters are plain: only
// the worker writes them, and the control goroutine folds them into Stats
// at quiesce.
type workerLocal struct {
	stalls          int64
	batch           []cond // workerBatched's drain buffer
	run, runBatched func() // the worker's phases, bound once
	_               [64]byte
}

// stateOn returns rt's DOMORE state, sized for opts, and resolves the
// options whose defaults the state holds.
func stateOn(rt *engine.Runtime, opts *Options) *state {
	if opts.Workers != rt.Workers() {
		panic(fmt.Sprintf("domore: %d workers asked of a runtime with %d", opts.Workers, rt.Workers()))
	}
	st := rt.State(stateKey{}, func() any {
		nw := rt.Workers()
		st := &state{
			rt:             rt,
			latestFinished: make([]paddedInt64, nw),
			local:          make([]workerLocal, nw),
			shadow:         shadow.NewSparse(),
			roundRobin:     sched.NewRoundRobin(),
			pending:        make([][]cond, nw),
		}
		for tid := range st.local {
			tid := tid
			st.local[tid].run = func() { st.worker(tid) }
			st.local[tid].runBatched = func() { st.workerBatched(tid) }
		}
		return st
	}).(*state)
	if st.queueCap != opts.QueueCap {
		st.queueCap = opts.QueueCap
		st.queues = make([]*queue.SPSC[cond], len(st.local))
		for i := range st.queues {
			st.queues[i] = queue.NewSPSC[cond](opts.QueueCap)
		}
	}
	if opts.Policy == nil {
		opts.Policy = st.roundRobin
	}
	return st
}

// begin resets the state for a run of w. Every thread is quiescent; the
// phase posts that follow publish the writes. The rings need no reset: each
// worker consumed its end token, so they are empty, and their indices only
// ever grow.
func (st *state) begin(w Workload, rec *trace.Recorder) {
	st.w, st.rec = w, rec
	for i := range st.latestFinished {
		st.latestFinished[i].v.Store(-1)
	}
	// DOMORE changes the workload's state without recording what it wrote.
	st.rt.StateChanged()
}

// Forget drops what the last run handed the state — workload, recorder and,
// for the sharded driver, its options and the policies built from them — so
// a runtime parked in the engine pool pins buffers only.
func (st *state) Forget() {
	st.w, st.rec = nil, nil
	if d := st.sharded; d != nil {
		d.w, d.opts, d.sch, d.newPolicy = nil, Options{}, nil, nil
		for l := range d.lanes {
			ls := &d.lanes[l]
			ls.pol, ls.owner = nil, nil
		}
	}
}

// fold adds the per-thread counters to stats and zeroes them.
func (st *state) fold(stats *Stats) {
	for i := range st.local {
		stats.Stalls += st.local[i].stalls
		st.local[i].stalls = 0
	}
}

// schedule is Algorithm 1 plus the outer-loop sequential regions: for every
// iteration it computes the address set, assigns workers, detects conflicts
// in shadow memory, and forwards conditions followed by the dispatch record.
func (st *state) schedule(opts *Options, stats *Stats) {
	w, queues, pending := st.w, st.queues, st.pending
	nw := opts.Workers
	shadowMem := st.shadow
	shadowMem.Reset()
	owner, multiOwner := opts.Policy.(*sched.LocalWrite)
	sch := opts.Trace.Lane(trace.LaneScheduler)

	iterNum := int64(0)
	buf := st.buf
	invocations := w.Invocations()
	for inv := 0; inv < invocations; inv++ {
		w.Sequential(inv)
		iters := w.Iterations(inv)
		sch.Emit(trace.KindEpochBegin, int64(inv), int64(inv+1), 0)
		for it := 0; it < iters; it++ {
			buf = w.ComputeAddr(inv, it, buf[:0])
			addrs := buf
			tids := opts.Policy.Assign(iterNum, addrs, nw)
			sch.Emit(trace.KindSchedule, 1, int64(inv), iterNum)
			sch.Emit(trace.KindAddrCheck, int64(len(addrs)), int64(inv), iterNum)
			for _, t := range tids {
				pending[t] = pending[t][:0]
			}
			for _, a := range addrs {
				// The thread that will actually perform this access: the
				// single assignee, or the address's owner under LOCALWRITE.
				accessor := int32(tids[0])
				if multiOwner && len(tids) > 1 {
					accessor = int32(owner.Owner(a, nw))
				}
				stats.AddrChecks++
				dep := shadowMem.Exchange(a, accessor, iterNum)
				if dep.Iter != shadow.None && dep.Tid != accessor {
					pending[accessor] = addDep(pending[accessor], dep.Tid, dep.Iter)
				}
			}
			for _, t := range tids {
				for _, d := range pending[t] {
					st.produce(queues[t], d, int64(t), sch)
					stats.SyncConditions++
					sch.Emit(trace.KindSyncCond, int64(t), int64(d.Tid), d.Iter)
				}
				st.produce(queues[t], cond{Kind: kindRun, Iter: iterNum, Inv: int32(inv), Index: int32(it)}, int64(t), sch)
				stats.Dispatches++
				sch.Emit(trace.KindDispatch, int64(t), iterNum, 0)
				if sch.Enabled() {
					sch.Emit(trace.KindQueueDepth, int64(queues[t].Len()), int64(t), 0)
				}
			}
			stats.Iterations++
			iterNum++
		}
		sch.Emit(trace.KindEpochCommit, 1, int64(inv), int64(inv+1))
	}
	st.buf = buf
	for t, q := range queues {
		st.produce(q, cond{Kind: kindEnd}, int64(t), sch)
	}
}

// produce forwards one message to worker owner's queue, recording a
// queue-full backoff episode on tt when the ring has no room. The fast
// path is a single TryProduce. It runs on the control goroutine: if the
// runtime stopped (the consumer died), Wait re-raises the panic.
func (st *state) produce(q *queue.SPSC[cond], c cond, owner int64, tt *trace.ThreadTrace) {
	if q.TryProduce(c) {
		return
	}
	tt.Emit(trace.KindQueueFullBegin, owner, 0, 0)
	for spins := 1; ; spins++ {
		if q.TryProduce(c) {
			tt.Emit(trace.KindQueueFullEnd, owner, 0, 0)
			return
		}
		if !st.rt.Pause(spins) {
			st.rt.Wait()
		}
	}
}

// consume receives one message from worker owner's queue, recording a
// queue-empty backoff episode on tt when the ring is dry; see produce. It
// reports false when the runtime stopped while the ring was dry.
func (st *state) consume(q *queue.SPSC[cond], owner int64, tt *trace.ThreadTrace) (cond, bool) {
	if v, ok := q.TryConsume(); ok {
		return v, true
	}
	tt.Emit(trace.KindQueueEmptyBegin, owner, 0, 0)
	for spins := 1; ; spins++ {
		if v, ok := q.TryConsume(); ok {
			tt.Emit(trace.KindQueueEmptyEnd, owner, 0, 0)
			return v, true
		}
		if !st.rt.Pause(spins) {
			return cond{}, false
		}
	}
}

// addDep appends a ⟨depTid, depIter⟩ condition, keeping only the newest
// iteration per dependence source thread.
func addDep(deps []cond, tid int32, iter int64) []cond {
	for i := range deps {
		if deps[i].Tid == tid {
			if iter > deps[i].Iter {
				deps[i].Iter = iter
			}
			return deps
		}
	}
	return append(deps, cond{Kind: kindDep, Tid: tid, Iter: iter})
}

// worker is Algorithm 2: consume conditions, stall on unsatisfied
// dependences, execute dispatched iterations, and publish completion.
func (st *state) worker(tid int) {
	q, tt := st.queues[tid], st.rec.Lane(int32(tid))
	for {
		c, ok := st.consume(q, int64(tid), tt)
		if !ok || !st.step(c, tid, tt) {
			return
		}
	}
}

// step handles one message on worker tid and reports whether the worker
// goes on: false on the end token, or when the runtime stopped during a
// stall.
func (st *state) step(c cond, tid int, tt *trace.ThreadTrace) bool {
	switch c.Kind {
	case kindEnd:
		return false
	case kindDep:
		dep := &st.latestFinished[c.Tid].v
		if dep.Load() < c.Iter {
			st.local[tid].stalls++
			tt.Emit(trace.KindStallBegin, int64(c.Tid), c.Iter, 0)
			for spins := 0; dep.Load() < c.Iter; spins++ {
				if !st.rt.Pause(spins) {
					return false
				}
			}
			tt.Emit(trace.KindStallEnd, int64(c.Tid), c.Iter, 0)
		}
	case kindRun:
		tt.Emit(trace.KindIterStart, int64(c.Inv), int64(c.Index), c.Iter)
		st.w.Execute(int(c.Inv), int(c.Index), tid)
		st.latestFinished[tid].v.Store(c.Iter)
		tt.Emit(trace.KindIterEnd, int64(c.Inv), int64(c.Index), c.Iter)
	}
	return true
}
