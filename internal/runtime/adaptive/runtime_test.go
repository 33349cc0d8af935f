package adaptive_test

import (
	"runtime"
	"testing"
	"time"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
)

// cells is a workload whose own methods allocate nothing, so what a run
// allocates is what the engines allocate. Task t of every epoch updates
// cell(t); the cells of one worker's tasks are contiguous, so under
// round-robin assignment no dependence crosses threads and range
// signatures of different workers never overlap.
type cells struct {
	epochs, tasks, workers int
	state                  []int64
	// fault, when set, runs before every task body; sig is nil outside
	// speculative execution.
	fault func(epoch, task int, sig *signature.Signature)
}

func newCells(epochs, tasks, workers int) *cells {
	return &cells{epochs: epochs, tasks: tasks, workers: workers, state: make([]int64, tasks)}
}

func (c *cells) cell(t int) uint64 {
	per := (c.tasks + c.workers - 1) / c.workers
	return uint64((t%c.workers)*per + t/c.workers)
}

func (c *cells) body(e, t int) {
	a := c.cell(t)
	c.state[a] = c.state[a]*3 + int64(e*c.tasks+t) + 1
}

func (c *cells) want() []int64 {
	ref := newCells(c.epochs, c.tasks, c.workers)
	for e := 0; e < ref.epochs; e++ {
		for t := 0; t < ref.tasks; t++ {
			ref.body(e, t)
		}
	}
	return ref.state
}

func (c *cells) check(t *testing.T, what string) {
	t.Helper()
	for i, v := range c.want() {
		if c.state[i] != v {
			t.Fatalf("%s: state[%d] = %d, sequential = %d", what, i, c.state[i], v)
		}
	}
}

func (c *cells) Invocations() int   { return c.epochs }
func (c *cells) Iterations(int) int { return c.tasks }
func (c *cells) Sequential(int)     {}
func (c *cells) Epochs() int        { return c.epochs }
func (c *cells) Tasks(int) int      { return c.tasks }
func (c *cells) ComputeAddr(_, iter int, buf []uint64) []uint64 {
	return append(buf, c.cell(iter))
}
func (c *cells) Execute(inv, iter, _ int) {
	if c.fault != nil {
		c.fault(inv, iter, nil)
	}
	c.body(inv, iter)
}
func (c *cells) Run(epoch, task, _ int, sig *signature.Signature) {
	if c.fault != nil {
		c.fault(epoch, task, sig)
	}
	if sig != nil {
		sig.Read(c.cell(task))
		sig.Write(c.cell(task))
	}
	c.body(epoch, task)
}
func (c *cells) StateLen() int                              { return len(c.state) }
func (c *cells) LoadCells(lo uint64, dst []int64)           { copy(dst, c.state[lo:]) }
func (c *cells) StoreCells(lo uint64, src []int64)          { copy(c.state[lo:], src) }
func (c *cells) CellMap() func(addr uint64) (lo, hi uint64) { return speccross.IdentityCells }

// settle waits for the goroutine count to return to base (Close has
// returned by then; the runtime may still be retiring the goroutines).
func settle(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s left %d goroutines behind, baseline %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// posted reports whether a guarded run traced into rec posted its
// worker phases: every posted worker emits on its lane, if only the
// queue-empty episode it abandons when the runtime closes, and a run whose
// guard stayed inline leaves the worker lanes empty.
func posted(rec *trace.Recorder, nw int) bool {
	for _, e := range rec.Events() {
		if e.Lane >= 0 && int(e.Lane) < nw {
			return true
		}
	}
	return false
}

// workerIterations counts the iterations the workers of a run traced into
// rec began.
func workerIterations(rec *trace.Recorder) int64 {
	n := int64(0)
	for _, e := range rec.Events() {
		if e.Lane >= 0 && e.Kind == trace.KindIterStart {
			n++
		}
	}
	return n
}

// TestEntryPointsLeaveNoGoroutineBehind: every entry point that borrows a
// runtime hands it back on every way out — a clean run, a misspeculation, a
// timed-out segment — so that closing the pool's idle runtimes leaves no
// engine goroutine; and a runtime a worker panicked on is torn down, not
// pooled. domore.Run's guard adds two ways out: a panic in an iteration it
// probes on the caller before it posted a worker phase, which leaves the
// runtime clean and pooled, and one after, which leaves the posted phases
// outstanding, so the runtime is torn down. speccross.Run's guard adds one:
// a panic in a task its probe runs, with every thread idle. The speculative
// ways out — a timed-out segment, a speculative worker's panic — are
// speccross.RunParallel's, since the guard keeps these tiny bodies inline.
// adaptive.Run's guard adds one: a panic in the first window's first epoch,
// which SPECCROSS's guard always runs inline with every thread idle.
func TestEntryPointsLeaveNoGoroutineBehind(t *testing.T) {
	const epochs, tasks, nw = 24, 8, 2
	pin := func(e adaptive.Engine) adaptive.Config {
		return adaptive.Config{Workers: nw, Window: 4, Policy: adaptive.Fixed(e), Start: e}
	}
	runRec, shardedRec, probeRec, specRec, inlineRec := trace.NewRecorder(), trace.NewRecorder(), trace.NewRecorder(), trace.NewRecorder(), trace.NewRecorder()
	cases := []struct {
		name   string
		fault  func(epoch, task int, sig *signature.Signature)
		panics bool
		run    func(c *cells)
		// guard, set for a guarded DOMORE run, is the recorder it traces
		// into, which tells whether it posted its worker phases; inProbe
		// requires that it did and that the panic came from the probe.
		guard   *trace.Recorder
		inProbe bool
	}{
		{name: "domore.Run", run: func(c *cells) { domore.Run(c, domore.Options{Workers: nw}) }},
		{name: "domore.RunSharded", run: func(c *cells) { domore.RunSharded(c, domore.Options{Workers: nw, Lanes: 2}) }},
		{name: "speccross.Run", run: func(c *cells) { speccross.Run(c, speccross.Config{Workers: nw, CheckpointEvery: 5}) }},
		{name: "speccross.Run forced misspeculation", run: func(c *cells) {
			st := speccross.Run(c, speccross.Config{Workers: nw, CheckpointEvery: 5, ForceMisspecEpoch: 7})
			if st.Misspeculations != 1 {
				t.Errorf("Misspeculations = %d, want the 1 forced", st.Misspeculations)
			}
		}},
		{name: "speccross.RunParallel SpecTimeout", run: func(c *cells) {
			st := speccross.RunParallel(c, speccross.Config{Workers: nw, CheckpointEvery: 5, SpecTimeout: time.Nanosecond})
			if st.Epochs+st.ReexecutedEpochs != epochs {
				t.Errorf("committed %d + re-executed %d epochs, want %d", st.Epochs, st.ReexecutedEpochs, epochs)
			}
		}},
		{name: "speccross.RunParallel speculative worker panic",
			fault: func(e, task int, sig *signature.Signature) {
				if sig != nil && e == 3 && task == 1 {
					panic("speculative fault")
				}
			},
			run: func(c *cells) {
				if st := speccross.RunParallel(c, speccross.Config{Workers: nw, CheckpointEvery: 5}); st.Misspeculations != 1 {
					t.Errorf("Misspeculations = %d, want 1: a speculative fault is a misspeculation", st.Misspeculations)
				}
			}},
		{name: "speccross.RunBarriers", run: func(c *cells) { speccross.RunBarriers(c, nw) }},
		{name: "adaptive.Run domore", run: func(c *cells) { adaptive.Run(c, pin(adaptive.EngineDomore)) }},
		{name: "adaptive.Run speccross", run: func(c *cells) { adaptive.Run(c, pin(adaptive.EngineSpecCross)) }},
		{name: "adaptive.Run domore-sharded", run: func(c *cells) { adaptive.Run(c, pin(adaptive.EngineDomore)) }},
		{name: "domore.Run worker panic", panics: true,
			fault: func(e, task int, _ *signature.Signature) {
				if e == 3 && task == 1 {
					panic("worker fault")
				}
			},
			guard: runRec,
			run:   func(c *cells) { domore.Run(c, domore.Options{Workers: nw, QueueCap: 2, Trace: runRec}) }},
		{name: "domore.RunSharded worker panic", panics: true,
			fault: func(e, task int, _ *signature.Signature) {
				if e == 3 && task == 1 {
					panic("worker fault")
				}
			},
			guard: shardedRec,
			run: func(c *cells) {
				domore.RunSharded(c, domore.Options{Workers: nw, Lanes: 2, QueueCap: 2, Trace: shardedRec})
			}},
		{name: "domore.Run panic in the probe after the parallel decision", panics: true,
			fault: func(e, task int, _ *signature.Signature) {
				// A body this costly against a free computeAddr decides
				// parallel at the guard's first clock read, after
				// iteration (0, 0) on a fresh runtime, and the probe runs
				// (0, 1) before it looks for a started worker.
				for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
				}
				if e == 0 && task == 1 {
					panic("worker fault")
				}
			},
			guard: probeRec, inProbe: true,
			run: func(c *cells) { domore.Run(c, domore.Options{Workers: nw, Trace: probeRec}) }},
		{name: "speccross.Run panic in the probe", panics: true,
			fault: func(e, task int, _ *signature.Signature) {
				if e == 1 && task == 1 {
					panic("worker fault")
				}
			},
			guard: specRec,
			run: func(c *cells) {
				speccross.Run(c, speccross.Config{Workers: nw, CheckpointEvery: 5, Trace: specRec})
			}},
		{name: "speccross.RunBarriers worker panic", panics: true,
			fault: func(e, task int, _ *signature.Signature) {
				if e == 3 && task == 1 {
					panic("worker fault")
				}
			},
			run: func(c *cells) { speccross.RunBarriers(c, nw) }},
		{name: "adaptive.Run worker panic in a barrier window", panics: true,
			fault: func(e, task int, sig *signature.Signature) {
				// An unpriced barrier's window is posted, so a barrier
				// worker runs epoch 2 and panics.
				if sig == nil && e == 2 && task == 0 {
					panic("worker fault")
				}
			},
			run: func(c *cells) { adaptive.Run(c, pin(adaptive.EngineBarrier)) }},
		{name: "adaptive.Run panic in the first window's inline epochs", panics: true,
			fault: func(e, task int, _ *signature.Signature) {
				if e == 0 && task == 1 {
					panic("worker fault")
				}
			},
			guard: inlineRec,
			run: func(c *cells) {
				cfg := pin(adaptive.EngineSpecCross)
				cfg.Trace = inlineRec
				adaptive.Run(c, cfg)
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			engine.CloseIdle()
			base := runtime.NumGoroutine()
			c := newCells(epochs, tasks, nw)
			c.fault = tc.fault
			func() {
				defer func() {
					r := recover()
					if tc.panics && r != "worker fault" {
						t.Errorf("recovered %v, want the worker's panic re-raised on the caller", r)
					}
					if !tc.panics && r != nil {
						panic(r)
					}
				}()
				tc.run(c)
			}()
			if !tc.panics {
				c.check(t, tc.name)
			}
			failed := tc.panics
			if tc.guard != nil {
				switch sent := posted(tc.guard, nw); {
				case tc.inProbe && !sent:
					t.Errorf("the guard posted no worker phase; want a parallel decision before the fault")
				case tc.inProbe && workerIterations(tc.guard) > 0:
					t.Errorf("the workers began %d iterations; want the fault in the probe", workerIterations(tc.guard))
				case !sent:
					failed = false // the probe panicked with every thread idle
				}
			}
			if _, _, idle := engine.Counters(); idle != 1 && !failed {
				t.Errorf("%d runtimes in the pool after a clean run or a panic on an idle runtime, want the 1 it released", idle)
			} else if idle != 0 && failed {
				t.Errorf("%d runtimes in the pool after a panic with phases posted, want the failed one dropped", idle)
			}
			engine.CloseIdle()
			settle(t, tc.name, base)
		})
	}
}

// TestWindowsShareOneSetOfThreads: a 12-window run starts exactly the
// threads a 1-window run does — an engine switch hands the same threads a
// different loop.
func TestWindowsShareOneSetOfThreads(t *testing.T) {
	const epochs, tasks, nw = 48, 8, 2
	threads := func(window int, policy adaptive.Policy, start adaptive.Engine) int {
		rt := engine.New(nw)
		defer rt.Close()
		c := newCells(epochs, tasks, nw)
		st := adaptive.RunOn(rt, c, adaptive.Config{Workers: nw, Window: window, Policy: policy, Start: start})
		if want := epochs / window; st.Windows != want {
			t.Fatalf("%d windows, want %d", st.Windows, want)
		}
		c.check(t, "adaptive")
		return rt.Threads()
	}
	for _, e := range []adaptive.Engine{adaptive.EngineDomore, adaptive.EngineSpecCross, adaptive.EngineBarrier} {
		one, twelve := threads(epochs, adaptive.Fixed(e), e), threads(epochs/12, adaptive.Fixed(e), e)
		if one != twelve {
			t.Errorf("%v: 12 windows started %d threads, 1 window %d", e, twelve, one)
		}
	}
	// Alternating engines every window still only ever needs the workers
	// plus the larger of the two engines' auxiliary sets.
	alt := threads(epochs/12, alternate{}, adaptive.EngineDomore)
	spec := threads(epochs, adaptive.Fixed(adaptive.EngineSpecCross), adaptive.EngineSpecCross)
	if alt != spec {
		t.Errorf("alternating DOMORE/SPECCROSS windows started %d threads, one SPECCROSS window %d", alt, spec)
	}
}

// alternate switches between DOMORE and SPECCROSS at every boundary.
type alternate struct{}

func (alternate) Decide(s adaptive.Sample) (adaptive.Engine, string) {
	if s.Engine == adaptive.EngineDomore {
		return adaptive.EngineSpecCross, "alternate"
	}
	return adaptive.EngineDomore, "alternate"
}

// TestWindowsAllocateNothingOfTheirOwn is the per-window allocation gate: a
// run cut into 12 windows allocates at most a small constant more than the
// same run as one window — no per-window ring, log, arena, base image,
// shadow store, label set or closure. Every window posts (RunParallel); an
// inline window runs no engine at all.
func TestWindowsAllocateNothingOfTheirOwn(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const epochs, tasks, nw = 48, 16, 2
	// Nothing scales with the window count today (the sample log is sized
	// up front); the slack only keeps the gate from pinning that to zero.
	const slack = 4
	allocs := func(window int, policy adaptive.Policy, start adaptive.Engine) float64 {
		c := newCells(epochs, tasks, nw)
		return testing.AllocsPerRun(10, func() {
			clear(c.state)
			adaptive.RunParallel(c, adaptive.Config{Workers: nw, Window: window, Policy: policy, Start: start})
		})
	}
	for _, e := range []adaptive.Engine{adaptive.EngineDomore, adaptive.EngineSpecCross, adaptive.EngineBarrier} {
		one, twelve := allocs(epochs, adaptive.Fixed(e), e), allocs(epochs/12, adaptive.Fixed(e), e)
		t.Logf("%v: 1 window %.0f allocations, 12 windows %.0f", e, one, twelve)
		if twelve > one+slack {
			t.Errorf("%v: 12 windows allocate %.0f, 1 window %.0f: more than %d apart", e, twelve, one, slack)
		}
	}
	two, twelve := allocs(epochs/2, alternate{}, adaptive.EngineDomore), allocs(epochs/12, alternate{}, adaptive.EngineDomore)
	t.Logf("alternating: 2 windows %.0f allocations, 12 windows %.0f", two, twelve)
	if twelve > two+slack {
		t.Errorf("alternating engines: 12 windows allocate %.0f, 2 windows %.0f: more than %d apart", twelve, two, slack)
	}
}

// TestPooledRunAllocatesWhatRunOnDoes is the deterministic cost gate of the
// engine pool: the second and later adaptive.RunParallel over a workload —
// each borrowing the runtime the one before released — allocates exactly
// what RunOn does on a runtime its caller keeps (the sample log and the
// controller), whichever engines its windows use, and starts no goroutine.
// The guarded adaptive.Run allocates no more: its inline windows run no
// engine.
func TestPooledRunAllocatesWhatRunOnDoes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const epochs, tasks, nw = 24, 16, 2
	c := newCells(epochs, tasks, nw)
	for _, tc := range []struct {
		name   string
		policy adaptive.Policy
		start  adaptive.Engine
	}{
		{"domore", adaptive.Fixed(adaptive.EngineDomore), adaptive.EngineDomore},
		{"speccross", adaptive.Fixed(adaptive.EngineSpecCross), adaptive.EngineSpecCross},
		{"barrier", adaptive.Fixed(adaptive.EngineBarrier), adaptive.EngineBarrier},
		{"alternating", alternate{}, adaptive.EngineDomore},
	} {
		cfg := adaptive.Config{Workers: nw, Window: 4, Policy: tc.policy, Start: tc.start}
		engine.CloseIdle()
		rt := engine.New(nw)
		kept := testing.AllocsPerRun(10, func() {
			clear(c.state)
			rt.StateChanged()
			adaptive.RunOn(rt, c, cfg)
		})
		rt.Close()
		c.check(t, tc.name+": RunOn")

		goroutines := 0
		pooled := testing.AllocsPerRun(10, func() {
			clear(c.state) // rewound behind the pool's back: Release covers it
			adaptive.RunParallel(c, cfg)
			if goroutines == 0 {
				goroutines = runtime.NumGoroutine() // after the warm-up run
			}
		})
		c.check(t, tc.name+": pooled RunParallel")
		if pooled != kept {
			t.Errorf("%s: a pooled RunParallel allocates %v objects, RunOn on a kept runtime %v", tc.name, pooled, kept)
		}
		if n := runtime.NumGoroutine(); n != goroutines {
			t.Errorf("%s: %d goroutines after 10 pooled runs, %d after the first", tc.name, n, goroutines)
		}
		guarded := testing.AllocsPerRun(10, func() {
			clear(c.state)
			adaptive.Run(c, cfg)
		})
		c.check(t, tc.name+": guarded Run")
		if guarded > kept {
			t.Errorf("%s: a guarded Run allocates %v objects, RunOn on a kept runtime %v", tc.name, guarded, kept)
		}
	}
	engine.CloseIdle()
}

// TestPooledRuntimePinsNoWorkload: the engines of a finished adaptive.Run
// saw the workload through the controller's window view; once the caller
// has dropped the workload, the runtime parked in the pool keeps neither
// reachable.
func TestPooledRuntimePinsNoWorkload(t *testing.T) {
	engine.CloseIdle()
	defer engine.CloseIdle()
	collected := make(chan struct{})
	func() {
		c := newCells(24, 8, 2)
		runtime.SetFinalizer(c, func(*cells) { close(collected) })
		adaptive.Run(c, adaptive.Config{Workers: 2, Window: 4, Policy: alternate{}})
	}()
	if _, _, idle := engine.Counters(); idle != 1 {
		t.Fatalf("%d runtimes in the pool after Run, want 1", idle)
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("the workload of a finished Run is still reachable while its runtime sits in the pool")
		case <-time.After(time.Millisecond):
		}
	}
}
