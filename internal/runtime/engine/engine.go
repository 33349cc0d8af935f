// Package engine provides the standing runtime the execution engines run
// on. The paper's premise is that worker threads outlive an inner-loop
// invocation; a Runtime makes them outlive the engine call too: it owns a
// set of goroutines — the workers, plus auxiliary threads that serve as
// SPECCROSS checker shards — that park between phases instead of being
// spawned and joined per window or per checkpoint segment, and it keeps each engine's reusable state (rings, progress
// arrays, shadow stores, checker log, signature arenas, checkpoint images)
// alive between runs so a run resets it instead of rebuilding it.
//
// Who owns which thread: the goroutine that calls an engine entry point is
// the control thread (DOMORE's scheduler, SPECCROSS's segment control, the
// adaptive controller). It posts one phase — a function — to each runtime thread's mailbox with Go or GoAux and
// quiesces with Wait, which returns when every mailbox has drained. An
// engine switch is therefore the same threads handed a different loop. A
// Runtime belongs to one control goroutine at a time; none of its methods
// except Stopped and Pause may be called from the threads it owns.
//
// A panic on a runtime thread does not kill the process: the thread's
// trampoline captures it and raises the stop word, every engine wait sees it
// through Pause and abandons its wait, and Wait tears the runtime down and
// re-raises the panic on the control goroutine. A runtime that failed is
// closed and must be replaced.
//
// Runtimes also outlive the engine call: the entry points that own their
// call (domore.Run, speccross.Run, adaptive.Run, ...) borrow one from a
// process-wide free list with Acquire and hand it back with Release, so a
// steady stream of calls runs on threads, rings and arenas that were built
// once. Whoever acquired a runtime is its control goroutine until it
// releases it. See Acquire and Release for what the pool keeps and promises.
package engine

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"crossinv/internal/runtime/barrier"
)

const (
	// idleSpins is how many Pause attempts an idle thread makes before it
	// parks: long enough to bridge a window boundary (a policy decision, a
	// dirty-cell checkpoint) without a futex wake, short enough that threads
	// an engine does not use sleep through its windows. The schedule yields
	// from the fourth attempt on, so GOMAXPROCS=1 still makes progress.
	idleSpins = 1 << 10
	// waitSpins is the control goroutine's budget in Wait. It is small
	// because the workers it waits for need the processor it would spin on.
	waitSpins = 1 << 6
)

// Runtime is a set of standing threads plus the engine state kept between
// runs. Create one with New; Close it when done.
type Runtime struct {
	workers int
	threads []*thread // workers first, then auxiliary threads; nil until first used
	started int
	exited  sync.WaitGroup

	// pending counts posted phases that have not finished; the control
	// goroutine parks once it has outlasted waitSpins.
	pending atomic.Int32
	parker

	stop   atomic.Bool
	closed bool

	// idle is raised while the runtime sits in the pool: its threads skip
	// their idle spin and park at once, so a pooled runtime costs no CPU.
	idle atomic.Bool
	// pooled is true while the runtime is on the free list; reused records
	// that the current owner got it from there.
	pooled atomic.Bool
	reused bool

	mu       sync.Mutex // guards panicked/panicVal, written by failing threads
	panicked bool
	panicVal any

	version uint64
	bar     *barrier.Barrier
	states  []stateSlot
	labels  labelCache // the control goroutine's

	// postedAt is when the first phase of the outstanding batch was posted;
	// startup is the batch start-up the last drain measured (see Startup).
	postedAt time.Time
	startup  time.Duration
}

type stateSlot struct{ key, val any }

// thread is one runtime-owned goroutine and its mailbox.
type thread struct {
	rt *Runtime

	// posted counts phases posted to this thread. The control goroutine
	// writes the mailbox fields, then advances posted; the thread reads
	// them after observing the advance.
	posted atomic.Uint64
	parker

	fn           func() // nil: exit
	engine, lane string

	seq     uint64        // control-private: phases posted
	busy    bool          // control-private: a phase is outstanding
	started time.Duration // since rt.postedAt, when the last phase began
	labels  labelCache
}

// New returns a runtime for the given number of worker threads. Threads are
// started on first use.
func New(workers int) *Runtime {
	if workers <= 0 {
		panic(fmt.Sprintf("engine: invalid worker count %d", workers))
	}
	runtimesCreated.Add(1)
	return &Runtime{workers: workers, parker: newParker()}
}

// Workers reports the worker-thread count the runtime was created for.
func (rt *Runtime) Workers() int { return rt.workers }

// Threads reports how many goroutines the runtime has started so far.
func (rt *Runtime) Threads() int { return rt.started }

// Closed reports whether the runtime can no longer run phases: it was
// closed, or it was torn down after a panic.
func (rt *Runtime) Closed() bool { return rt.closed }

// Go posts fn as the next phase of worker thread tid, labelled
// {engine, lane} in CPU profiles. The thread must have no phase
// outstanding.
func (rt *Runtime) Go(tid int, engine, lane string, fn func()) {
	if tid < 0 || tid >= rt.workers {
		panic(fmt.Sprintf("engine: worker %d out of range [0,%d)", tid, rt.workers))
	}
	rt.post(tid, engine, lane, fn)
}

// GoAux posts fn as the next phase of auxiliary thread i (a SPECCROSS
// checker shard). Auxiliary threads are started on first use and kept.
func (rt *Runtime) GoAux(i int, engine, lane string, fn func()) {
	if i < 0 {
		panic(fmt.Sprintf("engine: invalid auxiliary thread %d", i))
	}
	rt.post(rt.workers+i, engine, lane, fn)
}

func (rt *Runtime) post(i int, engine, lane string, fn func()) {
	if rt.closed {
		panic("engine: phase posted to a closed runtime")
	}
	for len(rt.threads) <= i {
		rt.threads = append(rt.threads, nil)
	}
	t := rt.threads[i]
	if t == nil {
		t = &thread{rt: rt, parker: newParker()}
		rt.threads[i] = t
		rt.started++
		rt.exited.Add(1)
		go t.loop()
	}
	if t.busy {
		panic(fmt.Sprintf("engine: thread %d already has a phase outstanding", i))
	}
	t.busy = true
	if rt.pending.Add(1) == 1 {
		// The first phase of a batch: the thread reads postedAt after it
		// sees the post, and every reader of the last one has finished.
		rt.postedAt = time.Now()
	}
	t.send(fn, engine, lane)
}

func (t *thread) send(fn func(), engine, lane string) {
	t.fn, t.engine, t.lane = fn, engine, lane
	t.seq++
	t.posted.Store(t.seq)
	t.unpark()
}

// loop is the thread trampoline: wait for a phase, run it, report.
func (t *thread) loop() {
	defer t.rt.exited.Done()
	for n := uint64(1); ; n++ {
		t.await(t.rt, idleSpins, func() bool { return t.posted.Load() >= n })
		if t.fn == nil {
			return
		}
		t.run()
		t.rt.finish()
	}
}

func (t *thread) run() {
	defer func() {
		if r := recover(); r != nil {
			t.rt.fail(r)
		}
		pprof.SetGoroutineLabels(context.Background())
	}()
	pprof.SetGoroutineLabels(t.labels.get(t.engine, t.lane))
	t.started = time.Since(t.rt.postedAt)
	t.fn()
}

func (rt *Runtime) finish() {
	if rt.pending.Add(-1) == 0 {
		rt.unpark()
	}
}

// fail records the first panic of a runtime thread and raises the stop word.
func (rt *Runtime) fail(v any) {
	rt.mu.Lock()
	if !rt.panicked {
		rt.panicked, rt.panicVal = true, v
	}
	bar := rt.bar
	rt.mu.Unlock()
	rt.stop.Store(true)
	if bar != nil {
		bar.Abort()
	}
}

// Stopped reports whether phases must abandon their waits: a runtime thread
// panicked, or the runtime is closing under a control goroutine that is
// unwinding. Engine waits see it through Pause; Stopped and Pause are the
// only methods safe to call from any thread.
func (rt *Runtime) Stopped() bool { return rt.stop.Load() }

// Wait quiesces: it returns once every posted phase has finished. If a
// phase panicked, Wait closes the runtime and re-raises that panic on the
// calling goroutine.
func (rt *Runtime) Wait() {
	rt.drain()
	rt.mu.Lock()
	panicked, v := rt.panicked, rt.panicVal
	rt.mu.Unlock()
	if panicked {
		rt.Close()
		panic(v)
	}
	if rt.stop.Load() {
		panic("engine: Wait on a closed runtime")
	}
}

// drain waits for every posted phase to finish and records how long the
// batch took to start: the earliest start among its threads.
func (rt *Runtime) drain() {
	rt.await(rt, waitSpins, func() bool { return rt.pending.Load() == 0 })
	startup, seen := time.Duration(0), false
	for _, t := range rt.threads {
		if t != nil && t.busy {
			if !seen || t.started < startup {
				startup, seen = t.started, true
			}
			t.busy = false
		}
	}
	if seen {
		rt.startup = startup
	}
}

// Settle is deferred by every engine entry point that runs on a handed-in
// runtime. When the control goroutine is panicking — a workload callback
// failed on it, or Wait re-raised a thread's panic — it closes the runtime,
// so no thread is left spinning on a phase that will never complete, and
// lets the panic continue.
func (rt *Runtime) Settle() {
	if r := recover(); r != nil {
		rt.Close()
		panic(r)
	}
}

// Close stops every thread and returns once they have exited. Phases still
// outstanding are told to abandon their waits first. Close is idempotent.
func (rt *Runtime) Close() {
	if rt.closed {
		return
	}
	rt.closed = true
	rt.stop.Store(true)
	if rt.bar != nil {
		rt.bar.Abort()
	}
	rt.drain()
	for _, t := range rt.threads {
		if t != nil {
			t.send(nil, "", "")
		}
	}
	rt.exited.Wait()
}

// Labeled runs fn on the control goroutine with pprof labels
// {engine, lane}, restoring the labels in force before. The labelled
// contexts are cached, so relabelling per window costs no allocation.
func (rt *Runtime) Labeled(engine, lane string, fn func()) {
	prev := rt.labels.cur
	ctx := rt.labels.get(engine, lane)
	rt.labels.cur = ctx
	pprof.SetGoroutineLabels(ctx)
	defer func() {
		rt.labels.cur = prev
		if prev == nil {
			prev = context.Background()
		}
		pprof.SetGoroutineLabels(prev)
	}()
	fn()
}

// labelCache memoizes the labelled contexts one goroutine switches between
// (a handful: engines × lanes).
type labelCache struct {
	entries []labelEntry
	cur     context.Context
}

type labelEntry struct {
	engine, lane string
	ctx          context.Context
}

func (c *labelCache) get(engine, lane string) context.Context {
	for i := range c.entries {
		if e := &c.entries[i]; e.engine == engine && e.lane == lane {
			return e.ctx
		}
	}
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("engine", engine, "lane", lane))
	c.entries = append(c.entries, labelEntry{engine, lane, ctx})
	return ctx
}

// State returns the value stored under key, building it with mk on first
// use. Each engine keeps the state it reuses between runs here, under a
// key type private to its package, so the state lives exactly as long as
// the threads that work on it.
func (rt *Runtime) State(key any, mk func() any) any {
	for i := range rt.states {
		if rt.states[i].key == key {
			return rt.states[i].val
		}
	}
	v := mk()
	rt.states = append(rt.states, stateSlot{key, v})
	return v
}

// Barrier returns the runtime's barrier across its worker threads. A thread
// panic or Close aborts it, releasing every waiter.
func (rt *Runtime) Barrier() *barrier.Barrier {
	if rt.bar == nil {
		bar := barrier.New(rt.workers)
		rt.mu.Lock()
		rt.bar = bar
		rt.mu.Unlock()
	}
	return rt.bar
}

// StateChanged records that the workload's state was changed without
// speculative write tracking — by a DOMORE or barrier phase, or by the
// caller between two runs on this runtime — so any image of that state an
// engine cached on the runtime is stale.
func (rt *Runtime) StateChanged() { rt.version++ }

// StateVersion counts StateChanged calls; a cached image is current while
// the version it was taken at still is.
func (rt *Runtime) StateVersion() uint64 { return rt.version }
