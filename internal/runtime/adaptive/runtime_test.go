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
func (c *cells) Snapshot() any                      { return append([]int64(nil), c.state...) }
func (c *cells) Restore(s any)                      { copy(c.state, s.([]int64)) }
func (c *cells) StateLen() int                      { return len(c.state) }
func (c *cells) ReadCell(i uint64) int64            { return c.state[i] }
func (c *cells) WriteCell(i uint64, v int64)        { c.state[i] = v }
func (c *cells) AddrCells(a uint64) (lo, hi uint64) { return a, a + 1 }

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

// TestEntryPointsLeaveNoGoroutineBehind: every entry point that borrows a
// runtime hands it back on every way out — a clean run, a misspeculation, a
// timed-out segment — so that closing the pool's idle runtimes leaves no
// engine goroutine; and a runtime a worker panicked on is torn down, not
// pooled.
func TestEntryPointsLeaveNoGoroutineBehind(t *testing.T) {
	const epochs, tasks, nw = 24, 8, 2
	pin := func(e adaptive.Engine) adaptive.Config {
		return adaptive.Config{Workers: nw, Window: 4, Policy: adaptive.Fixed(e), Start: e}
	}
	cases := []struct {
		name   string
		fault  func(epoch, task int, sig *signature.Signature)
		panics bool
		run    func(c *cells)
	}{
		{name: "domore.Run", run: func(c *cells) { domore.Run(c, domore.Options{Workers: nw}) }},
		{name: "domore.RunSharded", run: func(c *cells) { domore.RunSharded(c, domore.Options{Workers: nw, Lanes: 2, Batch: 4}) }},
		{name: "speccross.Run", run: func(c *cells) { speccross.Run(c, speccross.Config{Workers: nw, CheckpointEvery: 5}) }},
		{name: "speccross.Run forced misspeculation", run: func(c *cells) {
			st := speccross.Run(c, speccross.Config{Workers: nw, CheckpointEvery: 5, ForceMisspecEpoch: 7})
			if st.Misspeculations != 1 {
				t.Errorf("Misspeculations = %d, want the 1 forced", st.Misspeculations)
			}
		}},
		{name: "speccross.Run SpecTimeout", run: func(c *cells) {
			st := speccross.Run(c, speccross.Config{Workers: nw, CheckpointEvery: 5, SpecTimeout: time.Nanosecond})
			if st.Epochs+st.ReexecutedEpochs != epochs {
				t.Errorf("committed %d + re-executed %d epochs, want %d", st.Epochs, st.ReexecutedEpochs, epochs)
			}
		}},
		{name: "speccross.Run speculative worker panic",
			fault: func(e, task int, sig *signature.Signature) {
				if sig != nil && e == 3 && task == 1 {
					panic("speculative fault")
				}
			},
			run: func(c *cells) {
				if st := speccross.Run(c, speccross.Config{Workers: nw, CheckpointEvery: 5}); st.Misspeculations != 1 {
					t.Errorf("Misspeculations = %d, want 1: a speculative fault is a misspeculation", st.Misspeculations)
				}
			}},
		{name: "speccross.RunBarriers", run: func(c *cells) { speccross.RunBarriers(c, nw) }},
		{name: "adaptive.Run domore", run: func(c *cells) { adaptive.Run(c, pin(adaptive.EngineDomore)) }},
		{name: "adaptive.Run speccross", run: func(c *cells) { adaptive.Run(c, pin(adaptive.EngineSpecCross)) }},
		{name: "adaptive.Run domore-sharded", run: func(c *cells) { adaptive.Run(c, pin(adaptive.EngineDomoreSharded)) }},
		{name: "domore.Run worker panic", panics: true,
			fault: func(e, task int, _ *signature.Signature) {
				if e == 3 && task == 1 {
					panic("worker fault")
				}
			},
			run: func(c *cells) { domore.Run(c, domore.Options{Workers: nw, QueueCap: 2}) }},
		{name: "domore.RunSharded worker panic", panics: true,
			fault: func(e, task int, _ *signature.Signature) {
				if e == 3 && task == 1 {
					panic("worker fault")
				}
			},
			run: func(c *cells) { domore.RunSharded(c, domore.Options{Workers: nw, Lanes: 2, Batch: 4, QueueCap: 2}) }},
		{name: "speccross.RunBarriers worker panic", panics: true,
			fault: func(e, task int, _ *signature.Signature) {
				if e == 3 && task == 1 {
					panic("worker fault")
				}
			},
			run: func(c *cells) { speccross.RunBarriers(c, nw) }},
		{name: "adaptive.Run worker panic in a barrier window", panics: true,
			fault: func(e, task int, sig *signature.Signature) {
				if sig == nil && e == 9 && task == 0 {
					panic("worker fault")
				}
			},
			run: func(c *cells) { adaptive.Run(c, pin(adaptive.EngineBarrier)) }},
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
			if _, _, idle := engine.Counters(); idle != 1 && !tc.panics {
				t.Errorf("%d runtimes in the pool after a clean run, want the 1 it released", idle)
			} else if idle != 0 && tc.panics {
				t.Errorf("%d runtimes in the pool after a worker panic, want the failed one dropped", idle)
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

func (alternate) Decide(s adaptive.Sample) adaptive.Engine {
	if s.Engine == adaptive.EngineDomore {
		return adaptive.EngineSpecCross
	}
	return adaptive.EngineDomore
}

// TestWindowsAllocateNothingOfTheirOwn is the per-window allocation gate: a
// run cut into 12 windows allocates at most a small constant more than the
// same run as one window — no per-window ring, log, arena, base image,
// shadow store, label set or closure.
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
			adaptive.Run(c, adaptive.Config{Workers: nw, Window: window, Policy: policy, Start: start})
		})
	}
	for _, e := range []adaptive.Engine{adaptive.EngineDomore, adaptive.EngineDomoreSharded, adaptive.EngineSpecCross, adaptive.EngineBarrier} {
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
// engine pool: the second and later adaptive.Run over a workload — each
// borrowing the runtime the one before released — allocates exactly what
// RunOn does on a runtime its caller keeps (the sample log and the window
// view), whichever engines its windows use, and starts no goroutine.
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
		{"domore-sharded", adaptive.Fixed(adaptive.EngineDomoreSharded), adaptive.EngineDomoreSharded},
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
			adaptive.Run(c, cfg)
			if goroutines == 0 {
				goroutines = runtime.NumGoroutine() // after the warm-up run
			}
		})
		c.check(t, tc.name+": pooled Run")
		if pooled != kept {
			t.Errorf("%s: a pooled Run allocates %v objects, RunOn on a kept runtime %v", tc.name, pooled, kept)
		}
		if n := runtime.NumGoroutine(); n != goroutines {
			t.Errorf("%s: %d goroutines after 10 pooled runs, %d after the first", tc.name, n, goroutines)
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
