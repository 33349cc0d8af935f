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
// The scheduler also uses what shadow memory tells it to place the
// iteration: each worker takes one contiguous block of every invocation, and
// an iteration goes instead to the worker its newest dependence ran on,
// whose own program order then discharges that dependence (the
// produce-to-self case of §3.4), so a dependence chain stays on one worker
// instead of becoming one cross-thread condition per link. Consecutive
// iterations a worker takes with no condition between them travel as one run
// record rather than one dispatch record each.
//
// Run guards the transformation the way §3.3.4 guards it at compile time:
// DOMORE pays only when an iteration's body is worth more than the
// scheduler's work for it. Run first executes the region on the calling
// thread, in order, and times it, and dry-runs the scheduler's per-iteration
// work — computeAddr and the shadow-memory exchange — on a sample of the
// iterations it probed. When the scheduler alone costs at least as much per
// iteration as the inline execution, no worker count can win, and the region
// finishes on the calling thread; otherwise Run wakes the workers, keeps
// executing inline until the first of them has started, and hands the rest
// of the region to the scheduler there. The probe decides within about as
// long as the runtime's threads last took to start a posted phase
// (engine.Runtime.Budget). RunGuardedOn is that guarded execution on a
// caller's runtime, and RunOn the unguarded parallel execution.
package domore

import (
	"fmt"
	"sync/atomic"

	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/queue"
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
	// stay allocation-free.
	ComputeAddr(inv, iter int, buf []uint64) []uint64
	// Execute runs the inner-loop body for iteration (inv, iter) on worker
	// tid.
	Execute(inv, iter, tid int)
}

// Options configures a DOMORE execution.
type Options struct {
	// Workers is the number of worker threads (the scheduler is extra).
	Workers int
	// QueueCap is the per-worker condition-queue capacity (default 1024).
	QueueCap int
	// Trace, when non-nil, receives engine events: the scheduler emits on
	// trace.LaneScheduler (per-invocation epoch spans, schedule/addr-check/
	// sync-cond/dispatch records, queue-depth samples) and worker tid emits
	// on lane tid (iteration spans, stall spans carrying the ⟨depTid,
	// depIterNum⟩ condition, queue-empty backoff episodes). A nil Trace
	// compiles the hot path down to nil-receiver no-ops.
	Trace *trace.Recorder

	// Lanes is accepted and ignored. It remains because the repository
	// benchmark, which no change may edit, sets it for RunSharded.
	Lanes int
}

// followCap is how many consecutive iterations the assignment hands one
// worker by following dependences before the next one goes to its block,
// so an independent stream still reaches every worker. Chosen by
// measurement from {2, 3, 4} on the engine.dense programs.
const followCap = 3

// runCap is the most iterations one run record carries, so a worker that
// takes a long block starts on it before the scheduler has placed all of
// it. Chosen by measurement from {16, 32, unbounded} on the engine.dense
// programs.
const runCap = 32

func (o *Options) fill() {
	if o.Workers <= 0 {
		panic(fmt.Sprintf("domore: invalid worker count %d", o.Workers))
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
}

// Stats reports what the runtime engine observed: the counters behind the
// paper's Table 5.2 (iterations, conditions, stalls), as the repository
// benchmark and crossinv report them.
//
// Concurrency contract (audited, enforced by the stats_race_test regression
// under -race and by the stats-atomic lint rule): no thread writes Stats
// while an engine runs. The scheduler counts into a Stats only it can see,
// workers count Stalls in plain thread-private counters, and the control
// goroutine folds those in at quiesce, when every thread has finished its
// phase, so callers may read the returned Stats without synchronization.
type Stats struct {
	// Iterations is the total number of inner-loop iterations executed
	// (combined across invocations — the paper's global iteration numbers),
	// inline and scheduled alike.
	Iterations int64
	// Inline counts the iterations Run or RunGuardedOn executed on the
	// calling thread, its probe included; Iterations − Inline were scheduled onto the workers.
	// It is 0 under RunOn and RunParallel. Every counter below counts the
	// scheduled part only.
	Inline int64
	// InlineNs and SchedNs are the rates Run's guard decided on, in
	// nanoseconds per iteration: the probe's inline execution, Sequential
	// included, and the scheduler's dry-run computeAddr and shadow exchange.
	// Run stayed on the calling thread when SchedNs ≥ InlineNs. Both are 0
	// when no guard ran.
	InlineNs, SchedNs float64
	// Dispatches counts the iterations sent to the workers, each to one:
	// always Iterations − Inline.
	Dispatches int64
	// SyncConditions counts ⟨depTid, depIterNum⟩ conditions forwarded — the
	// dynamic dependences that manifested across threads.
	SyncConditions int64
	// Dependences counts the iterations with a manifested dependence — a
	// prior accessor of one of their addresses — on any thread. It is the
	// manifest rate's numerator: unlike SyncConditions it does not fall
	// when the assignment keeps a dependence on one worker.
	Dependences int64
	// Stalls counts worker waits that found the dependence not yet
	// satisfied (i.e. the condition caused an actual pause).
	Stalls int64
	// AddrChecks counts shadow-memory lookups performed by the scheduler.
	AddrChecks int64
	// Batches counts the run records sent to workers. One record carries a
	// worker's consecutive iterations of one invocation up to the next
	// condition, at most runCap of them, so Batches is at most Dispatches.
	Batches int64
	// LaneWaits is always 0. It remains because the repository benchmark,
	// which no change may edit, reads it.
	LaneWaits int64
}

// message kinds carried on the scheduler→worker queues.
const (
	kindDep int32 = iota // wait until latestFinished[Tid] >= Iter
	kindRun              // execute Count iterations from (Inv, Index), publishing each
	kindEnd              // worker shutdown (the END_TOKEN of §3.3.2)
)

// cond is one queue message. For kindDep, Tid/Iter carry the dependence;
// for kindRun, Inv/Index locate the first loop iteration to execute, Iter
// is its combined iteration number, and Count is how many consecutive
// iterations of invocation Inv the run holds.
type cond struct {
	Kind  int32
	Tid   int32
	Iter  int64
	Inv   int32
	Index int32
	Count int32
}

// next reports whether iteration (inv, it) continues run r.
func (r *cond) next(inv, it int) bool {
	return int(r.Inv) == inv && int(r.Index+r.Count) == it
}

// Run executes the workload under DOMORE with a dedicated scheduler thread
// (the Fig 3.2(c) plan) and returns execution statistics. It is RunGuardedOn
// on a runtime borrowed from the engine pool for the call and released on
// return, and it traces the guard's decision as one trace.KindInline event
// on the scheduler lane.
func Run(w Workload, opts Options) Stats {
	opts.fill()
	rt := engine.Acquire(opts.Workers)
	defer rt.Release()
	stats := RunGuardedOn(rt, w, opts)
	opts.Trace.Lane(trace.LaneScheduler).Emit(trace.KindInline, stats.Inline, int64(stats.InlineNs), int64(stats.SchedNs))
	return stats
}

// RunGuardedOn is the guarded execution, as the package documentation
// describes, on the threads and state of rt, which must have been created
// for opts.Workers workers: it probes the region inline first, and goes
// parallel from where the probe stopped only when the scheduler's measured
// cost per iteration is below the inline one. Probed iterations need no
// conditions, since they finished before the scheduler placed any other,
// and an invocation the probe left half done does not run Sequential again.
// The guard's decision is in Stats.Inline, InlineNs and SchedNs; unlike
// Run, RunGuardedOn emits no trace.KindInline, so a caller running it
// inside a larger region (the adaptive controller's windows) traces its
// inline work once, itself. A panic in a probed iteration continues on the
// caller; rt stays usable unless the probe had already woken its workers.
func RunGuardedOn(rt *engine.Runtime, w Workload, opts Options) Stats {
	opts.fill()
	st := stateOn(rt, &opts)
	st.begin(w, opts.Trace)
	g := st.probe(rt.Budget())
	stats := Stats{Iterations: g.at.iter}
	if g.parallel {
		stats = st.schedulePosted(&opts, g.at)
	}
	stats.Inline, stats.InlineNs, stats.SchedNs = g.at.iter, g.inlineNs, g.schedNs
	return stats
}

// RunOn is the unguarded parallel execution: Run with no probe, on the
// threads and state of rt, which must have been created for opts.Workers
// workers. The calling goroutine is the scheduler from the region's first
// iteration, the runtime's worker threads run Algorithm 2, and rings,
// progress words and the shadow store are reset, not rebuilt. If the
// scheduler or a worker panics, rt is closed and the panic continues on the
// caller.
func RunOn(rt *engine.Runtime, w Workload, opts Options) Stats {
	opts.fill()
	defer rt.Settle()
	st := stateOn(rt, &opts)
	st.begin(w, opts.Trace)
	st.post()
	return st.schedulePosted(&opts, position{})
}

// RunParallel is RunOn on a runtime borrowed from the engine pool for the
// call and released on return: Run without its guard, the parallel
// execution from the region's first iteration whatever the region costs.
// The tests and chaos arms that pin what the scheduler and the workers do
// run it.
func RunParallel(w Workload, opts Options) Stats {
	opts.fill()
	rt := engine.Acquire(opts.Workers)
	defer rt.Release()
	return RunOn(rt, w, opts)
}

// post starts the worker phases of a parallel run.
func (st *state) post() {
	st.awake.Store(false)
	for tid := range st.local {
		st.rt.Go(tid, "domore", "worker", st.local[tid].run)
	}
}

// schedulePosted runs the scheduler from position from, the worker phases
// posted, and quiesces. The runtime measures how long the first worker took
// to start, which sizes the next guarded probe.
func (st *state) schedulePosted(opts *Options, from position) Stats {
	rt := st.rt
	defer rt.Settle()
	var stats Stats
	rt.Labeled("domore", "scheduler", func() { st.schedule(opts, &stats, from) })
	rt.Wait()
	st.fold(&stats)
	return stats
}

// RunSharded is Run: Options.Lanes is ignored, Stats.Batches counts Run's
// run records, and LaneWaits reads 0. It remains because the repository
// benchmark, which no change may edit, calls it by name; the crossinvvet
// frozen-surface rule rejects any other caller outside tests.
func RunSharded(w Workload, opts Options) Stats { return Run(w, opts) }

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
	shadow         *shadow.Sparse // the dependence-detection store, cleared per run
	pending        [][]cond       // scheduler: per-target conditions of the current iteration
	open           []cond         // scheduler: per-worker run not yet sent (Count 0: none)
	buf            []uint64       // scheduler: ComputeAddr scratch
	meter          engine.Probe   // the guard's inline measurement

	// The run in progress, written by the control goroutine before it posts
	// the worker phases.
	w         Workload
	rec       *trace.Recorder
	awake     atomic.Bool // a worker has begun its phase
	elide     bool        // w asked for the elide-cross-cond mutation (see crossCondElider)
	runPast   bool        // w asked for the run-past-cond mutation (see runPastConder)
	resumeOff bool        // w asked for the resume-off-by-one mutation (see resumeOffByOner)
	rr        bool        // w asked for round-robin assignment (see roundRobiner)
}

// crossCondElider is the seam of the chaos harness's elide-cross-cond
// mutation. A workload whose ElideCrossConds reports true gets a broken
// scheduler: it forwards no condition for an iteration it placed by
// following a dependence, as if the followed worker's program order
// discharged every dependence of the iteration and not only that one. The
// harness must catch the missed condition; nothing else implements this.
type crossCondElider interface{ ElideCrossConds() bool }

// runPastConder is the seam of the chaos harness's run-past-cond mutation.
// A workload whose RunPastConds reports true gets a broken scheduler: an
// iteration that needs a condition but continues its worker's open run is
// folded into that run and its conditions are dropped, as if a run record
// carried its iterations' conditions. The harness must catch the missed
// condition; nothing else implements this.
type runPastConder interface{ RunPastConds() bool }

// resumeOffByOner is the seam of the chaos harness's resume-off-by-one
// mutation. A workload whose ResumeOffByOne reports true gets a broken
// guard: the scheduler resumes one iteration past where the probe stopped,
// so that iteration never runs. The harness must catch the lost iteration;
// nothing else implements this.
type resumeOffByOner interface{ ResumeOffByOne() bool }

// roundRobiner is a test seam: a workload whose RoundRobin reports true is
// scheduled round-robin, iteration iterNum on worker iterNum mod Workers
// whatever its dependences, with one run record per iteration. It keeps
// the chaos harness's and the tests' condition-heavy differential, in
// which nearly every dependence crosses threads; nothing else implements
// it.
type roundRobiner interface{ RoundRobin() bool }

// workerLocal is one worker's private state. Its counters are plain: only
// the worker writes them, and the control goroutine folds them into Stats
// at quiesce.
type workerLocal struct {
	stalls int64
	run    func() // the worker's phase, bound once
	_      [64]byte
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
			pending:        make([][]cond, nw),
			open:           make([]cond, nw),
		}
		for tid := range st.local {
			tid := tid
			st.local[tid].run = func() { st.worker(tid) }
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
	return st
}

// begin resets the state for a run of w. Every thread is quiescent; the
// phase posts that follow publish the writes. The rings need no reset: each
// worker consumed its end token, so they are empty, and their indices only
// ever grow.
func (st *state) begin(w Workload, rec *trace.Recorder) {
	st.w, st.rec = w, rec
	e, ok := w.(crossCondElider)
	st.elide = ok && e.ElideCrossConds()
	r, ok := w.(runPastConder)
	st.runPast = ok && r.RunPastConds()
	o, ok := w.(resumeOffByOner)
	st.resumeOff = ok && o.ResumeOffByOne()
	rr, ok := w.(roundRobiner)
	st.rr = ok && rr.RoundRobin()
	for i := range st.latestFinished {
		st.latestFinished[i].v.Store(-1)
	}
	// DOMORE changes the workload's state without recording what it wrote.
	st.rt.StateChanged()
}

// Forget drops what the last run handed the state — workload and recorder —
// so a runtime parked in the engine pool pins buffers only.
func (st *state) Forget() { st.w, st.rec = nil, nil }

// fold adds the per-thread counters to stats and zeroes them.
func (st *state) fold(stats *Stats) {
	for i := range st.local {
		stats.Stalls += st.local[i].stalls
		st.local[i].stalls = 0
	}
}

// schedule is Algorithm 1 plus the outer-loop sequential regions: for every
// iteration it computes the address set, assigns a worker (see follower),
// detects conflicts in shadow memory, and forwards conditions followed by
// the dispatch record. A dispatch record is held open on its worker and
// grows by each next iteration of the invocation that worker takes with no
// condition; it is sent when it stops growing, when it reaches runCap, when
// a condition naming one of its iterations is about to be sent, so no
// worker ever waits on an iteration the scheduler holds, and when the
// invocation ends, before the next Sequential, which may wait for the
// workers.
//
// It starts at from: invocation from.inv, whose Sequential has already run
// when from.it > 0, at its iteration from.it, numbered from.iter. Under
// RunOn that is the region's start.
func (st *state) schedule(opts *Options, stats *Stats, from position) {
	w, queues, pending, open, rr := st.w, st.queues, st.pending, st.open, st.rr
	nw := opts.Workers
	shadowMem := st.shadow
	shadowMem.Reset()
	sch := opts.Trace.Lane(trace.LaneScheduler)

	f := follower{sm: shadowMem, nw: nw, elide: st.elide}
	// Counted in locals, stored into stats once at the end.
	var dispatches, syncConds, dependences, addrChecks, batches int64
	resumed := from.it > 0
	if st.resumeOff && from.iter > 0 {
		from.it++
		from.iter++
	}
	iterNum := from.iter
	buf := st.buf
	invocations := w.Invocations()
	for inv := from.inv; inv < invocations; inv++ {
		first := 0
		if inv == from.inv {
			first = from.it
		}
		if inv != from.inv || !resumed {
			w.Sequential(inv)
		}
		iters := w.Iterations(inv)
		sch.Emit(trace.KindEpochBegin, int64(inv), int64(inv+1), 0)
		for it := first; it < iters; it++ {
			buf = w.ComputeAddr(inv, it, buf[:0])
			addrs := buf
			sch.Emit(trace.KindSchedule, 1, int64(inv), iterNum)
			sch.Emit(trace.KindAddrCheck, int64(len(addrs)), int64(inv), iterNum)
			addrChecks += int64(len(addrs))
			// The iteration is stamped with its provisional assignee, and
			// placed once its dependences are known.
			t := f.provisional(it-first, iters-first)
			if rr {
				t = int(iterNum % int64(nw))
			}
			pending[t] = pending[t][:0]
			own, manifest := shadow.None, false
			for _, a := range addrs {
				dep := shadowMem.Exchange(a, int32(t), iterNum)
				switch {
				case dep.Iter == shadow.None || dep.Iter == iterNum:
					// Untouched, or the address occurs twice in the iteration.
				case dep.Tid == int32(t):
					own, manifest = max(own, dep.Iter), true
				default:
					pending[t] = addDep(pending[t], dep.Tid, dep.Iter)
					manifest = true
				}
			}
			if manifest {
				dependences++
			}
			if !rr {
				t = int(f.place(pending, addrs, iterNum, int32(t), own))
			}
			conds, run := pending[t], &open[t]
			if run.Count > 0 && (!run.next(inv, it) || len(conds) > 0 && !st.runPast) {
				st.send(t, sch)
				batches++
			}
			if run.Count > 0 {
				// The iteration continues the open run; under the
				// run-past-cond mutation its conditions are dropped.
				run.Count++
			} else {
				for _, d := range conds {
					if r := &open[d.Tid]; r.Count > 0 && d.Iter >= r.Iter {
						st.send(int(d.Tid), sch)
						batches++
					}
					st.produce(queues[t], d, int64(t), sch)
					syncConds++
					sch.Emit(trace.KindSyncCond, int64(t), int64(d.Tid), d.Iter)
				}
				*run = cond{Kind: kindRun, Iter: iterNum, Inv: int32(inv), Index: int32(it), Count: 1}
			}
			dispatches++
			sch.Emit(trace.KindDispatch, int64(t), iterNum, 0)
			if rr || run.Count == runCap {
				st.send(t, sch)
				batches++
			}
			iterNum++
		}
		for t := range open {
			if open[t].Count > 0 {
				st.send(t, sch)
				batches++
			}
		}
		sch.Emit(trace.KindEpochCommit, 1, int64(inv), int64(inv+1))
	}
	st.buf = buf
	for t, q := range queues {
		st.produce(q, cond{Kind: kindEnd}, int64(t), sch)
	}
	stats.Iterations, stats.Dispatches, stats.SyncConditions = iterNum, dispatches, syncConds
	stats.Dependences, stats.AddrChecks, stats.Batches = dependences, addrChecks, batches
}

// send forwards worker t's open run and closes it.
func (st *state) send(t int, sch *trace.ThreadTrace) {
	q := st.queues[t]
	st.produce(q, st.open[t], int64(t), sch)
	st.open[t].Count = 0
	if sch.Enabled() {
		sch.Emit(trace.KindQueueDepth, int64(q.Len()), int64(t), 0)
	}
}

// follower is DOMORE's assignment over one run, and it follows the
// dependence: an iteration goes to the worker of its newest prior accessor
// in shadow memory, unless that worker took the last followCap iterations or
// there is no prior accessor, when iteration it of an n-iteration invocation
// goes to worker ⌊it·Workers/n⌋, so each worker's share of an invocation is
// one contiguous block; of an invocation Run's guard left half done, the
// rest is split so. The rule is a pure function of the shadow state and the
// iteration's place in its invocation. It lives on the scheduler's stack.
type follower struct {
	sm    *shadow.Sparse
	nw    int
	last  int32 // the worker the last iteration went to
	n     int   // how many consecutive iterations it took
	elide bool  // the elide-cross-cond mutation (see crossCondElider)
}

// provisional returns the provisional assignee of iteration it of an
// iters-iteration range: worker ⌊it·nw/iters⌋, so each worker's share is
// one contiguous block, split the same way every invocation. The range is
// the invocation, or what the guard's probe left of it.
func (f *follower) provisional(it, iters int) int {
	return int(int64(it) * int64(f.nw) / int64(iters))
}

// place decides where iteration iterNum goes once its addresses have been
// exchanged in shadow memory under the provisional assignee p: own is p's
// newest prior access to them, and pending[p] holds the other threads',
// newest per thread — the conditions the iteration needs if it stays. It
// goes to the worker of the newest prior accessor, unless that worker took
// the last followCap iterations or there is none. An iteration that moves
// is re-stamped under its assignee t, and pending[t] gets its conditions:
// p's own access among them, t's left out.
func (f *follower) place(pending [][]cond, addrs []uint64, iterNum int64, p int32, own int64) int32 {
	deps, t := pending[p], p
	if len(deps) > 0 {
		newest := shadow.Entry{Tid: p, Iter: own}
		for _, d := range deps {
			if d.Iter > newest.Iter {
				newest = shadow.Entry{Tid: d.Tid, Iter: d.Iter}
			}
		}
		if newest.Tid != f.last || f.n < followCap {
			t = newest.Tid
			if f.elide {
				deps, own, pending[p] = nil, shadow.None, deps[:0]
			}
		}
	}
	if t == f.last {
		f.n++
	} else {
		f.last, f.n = t, 1
	}
	if t != p {
		for _, a := range addrs {
			f.sm.Update(a, t, iterNum)
		}
		conds := pending[t][:0]
		for _, d := range deps {
			if d.Tid != t {
				conds = append(conds, d)
			}
		}
		if own != shadow.None {
			conds = append(conds, cond{Kind: kindDep, Tid: p, Iter: own})
		}
		pending[t] = conds
	}
	return t
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
// dependences, execute dispatched runs, and publish each iteration's
// completion.
func (st *state) worker(tid int) {
	st.awake.Store(true)
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
		// Every iteration is published as it finishes: a condition may
		// name any of them.
		done := &st.latestFinished[tid].v
		for k := int32(0); k < c.Count; k++ {
			idx, iter := c.Index+k, c.Iter+int64(k)
			tt.Emit(trace.KindIterStart, int64(c.Inv), int64(idx), iter)
			st.w.Execute(int(c.Inv), int(idx), tid)
			done.Store(iter)
			tt.Emit(trace.KindIterEnd, int64(c.Inv), int64(idx), iter)
		}
	}
	return true
}
