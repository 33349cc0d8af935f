package domore

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/trace"
)

// counting is an irregular workload that counts its Sequential and Execute
// calls, with spin work in ComputeAddr and in Execute to steer the guard:
// a costly ComputeAddr and a cheap body keep the region inline, the other
// way round it goes parallel.
type counting struct {
	*irregular
	seq            []atomic.Int32   // Sequential calls per invocation
	exec           [][]atomic.Int32 // Execute calls per iteration
	addrWork, work int
	panicAt        int // Execute panics on this combined iteration; -1: never
	sink           atomic.Uint64
}

func newCounting(invs, iters, addrWork, work int) *counting {
	w := &counting{
		irregular: newIrregular(rand.New(rand.NewSource(3)), invs, iters, 64, 2),
		seq:       make([]atomic.Int32, invs),
		exec:      make([][]atomic.Int32, invs),
		addrWork:  addrWork, work: work, panicAt: -1,
	}
	for i := range w.exec {
		w.exec[i] = make([]atomic.Int32, iters)
	}
	return w
}

func (w *counting) spin(n int) {
	x := uint64(n)
	for range n {
		x = x*6364136223846793005 + 1442695040888963407
	}
	w.sink.Add(x)
}

func (w *counting) Sequential(inv int) { w.seq[inv].Add(1) }

func (w *counting) ComputeAddr(inv, it int, buf []uint64) []uint64 {
	w.spin(w.addrWork)
	return w.irregular.ComputeAddr(inv, it, buf)
}

func (w *counting) Execute(inv, it, tid int) {
	if inv*len(w.exec[0])+it == w.panicAt {
		panic("counting: injected fault")
	}
	w.spin(w.work)
	w.exec[inv][it].Add(1)
	w.irregular.Execute(inv, it, tid)
}

// checkOnce requires one Sequential call per invocation, one Execute call
// per iteration, and the sequential result.
func (w *counting) checkOnce(t *testing.T, what string, want []int64) {
	t.Helper()
	for inv := range w.seq {
		if n := w.seq[inv].Load(); n != 1 {
			t.Fatalf("%s: Sequential(%d) ran %d times", what, inv, n)
		}
		for it := range w.exec[inv] {
			if n := w.exec[inv][it].Load(); n != 1 {
				t.Fatalf("%s: Execute(%d, %d) ran %d times", what, inv, it, n)
			}
		}
	}
	checkIrregular(t, what, w.irregular, want)
}

// TestResumeRunsEachIterationOnce drives the scheduler's resume directly:
// for every place a probe can stop at — after any iteration, mid-invocation
// or at an invocation's end — the test runs the region inline up to there
// as the probe does and hands the rest to the scheduler. Sequential runs
// once per invocation, Execute once per iteration, and the result is the
// sequential one. The workers split what the probe left of an invocation
// into blocks as they split a whole one: the first iteration scheduled,
// which the emptied shadow store gives no dependence to follow, goes to
// worker 0 wherever the probe stopped.
func TestResumeRunsEachIterationOnce(t *testing.T) {
	const invs, iters, workers = 3, 5, 2
	for stop := 1; stop < invs*iters; stop++ {
		w := newCounting(invs, iters, 0, 0)
		want := w.sequentialRun()
		done := 0
		var at position
		for inv := 0; done < stop; inv++ {
			w.Sequential(inv)
			for it := 0; it < iters && done < stop; it++ {
				w.Execute(inv, it, 0)
				done++
				at = position{inv: inv, it: it + 1, iter: int64(done)}
				if at.it == iters {
					at = position{inv: inv + 1, iter: int64(done)}
				}
			}
		}
		rec := trace.NewRecorder()
		opts := Options{Workers: workers, Trace: rec}
		opts.fill()
		rt := engine.Acquire(workers)
		st := stateOn(rt, &opts)
		st.begin(w, rec)
		st.post()
		stats := st.schedulePosted(&opts, at)
		rt.Release()
		w.checkOnce(t, "resume", want)
		for _, e := range rec.Events() {
			if e.Lane == trace.LaneScheduler && e.Kind == trace.KindDispatch {
				if e.A != 0 {
					t.Fatalf("resume after %d: the first scheduled iteration went to worker %d, want 0", stop, e.A)
				}
				break
			}
		}
		if stats.Iterations != invs*iters || stats.Dispatches != int64(invs*iters-stop) {
			t.Fatalf("resume after %d: %d iterations, %d dispatched; want %d and %d", stop, stats.Iterations, stats.Dispatches, invs*iters, invs*iters-stop)
		}
	}
}

// guarded runs w under Run with a recorder, which it returns, and checks
// what every guarded run must satisfy, whatever the guard decided: each
// invocation's Sequential and each iteration once, the sequential result,
// Inline plus the scheduled iterations equal to all of them, and one inline
// event that says so.
func guarded(t *testing.T, w *counting, workers int) (Stats, *trace.Recorder) {
	t.Helper()
	want := w.sequentialRun()
	rec := trace.NewRecorder()
	st := Run(w, Options{Workers: workers, Trace: rec})
	w.checkOnce(t, "guarded Run", want)
	total := int64(len(w.seq) * len(w.exec[0]))
	sum := rec.Summary()
	if st.Iterations != total || st.Inline+st.Dispatches != total || sum.Counts[trace.KindSchedule] != total-st.Inline {
		t.Fatalf("%d iterations, %d inline, %d dispatched, %d scheduled in the trace; want %d = inline + scheduled",
			st.Iterations, st.Inline, st.Dispatches, sum.Counts[trace.KindSchedule], total)
	}
	if sum.Counts[trace.KindInline] != 1 || sum.Sums[trace.KindInline] != st.Inline {
		t.Fatalf("%d inline events summing %d, want one of %d", sum.Counts[trace.KindInline], sum.Sums[trace.KindInline], st.Inline)
	}
	if st.InlineNs <= 0 {
		t.Fatalf("inline rate %v ns/iteration, want a measurement", st.InlineNs)
	}
	return st, rec
}

// TestGuardStaysInlineOnTinyBodies: a region whose scheduler work costs
// far more than its body runs on the calling thread to the end, posting no
// worker phase — the pooled runtime it ran on has started no thread. The
// decision is a measurement, so a run the machine disturbed may decide
// parallel (and may still end inline, before a worker started); the test
// asks for one inline decision in five.
func TestGuardStaysInlineOnTinyBodies(t *testing.T) {
	const workers = 2
	defer engine.CloseIdle()
	for attempt := 0; attempt < 5; attempt++ {
		engine.CloseIdle()
		st, _ := guarded(t, newCounting(20, 50, 400, 0), workers)
		if st.Inline != st.Iterations || st.SchedNs < st.InlineNs {
			continue
		}
		if st.Batches != 0 || st.AddrChecks != 0 {
			t.Fatalf("inline run sent %d records and checked %d addresses; want 0 of each", st.Batches, st.AddrChecks)
		}
		rt := engine.Acquire(workers)
		threads := rt.Threads()
		rt.Release()
		if threads != 0 {
			t.Fatalf("an inline region started %d runtime threads, want none", threads)
		}
		return
	}
	t.Fatal("a region with a 400-round computeAddr and an empty body never stayed inline in five runs")
}

// TestGuardGoesParallelOnCostlyBodies: a region whose body costs far more
// than its scheduler work goes parallel after the probe, which resumes
// where it stopped — mid-invocation, in a region of long invocations, and
// in a region of one invocation, whose rest both workers share.
func TestGuardGoesParallelOnCostlyBodies(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// The probe hands over once a worker has started, and on one
		// processor none starts while the probe runs: the region ends
		// inline, which TestGuardPanicInProbeReachesCaller and the
		// workload suites cover.
		t.Skip("a worker cannot start beside the probe on one processor")
	}
	const workers = 2
	for _, invs := range []int{8, 1} {
		resumed := false
		for attempt := 0; attempt < 10 && !resumed; attempt++ {
			w := newCounting(invs, 600, 0, 2000)
			st, rec := guarded(t, w, workers)
			if st.Inline == 0 || st.Inline == st.Iterations {
				continue
			}
			if st.SchedNs >= st.InlineNs || st.Dispatches == 0 {
				t.Fatalf("parallel run with scheduler %v ≥ inline %v ns/iteration, %d dispatches", st.SchedNs, st.InlineNs, st.Dispatches)
			}
			if st.Inline%600 == 0 {
				continue // the probe stopped at an invocation's end; look for a resume mid-invocation
			}
			var ran [workers]int
			for _, e := range rec.Events() {
				if e.Lane >= 0 && e.Kind == trace.KindIterStart {
					ran[e.Lane]++
				}
			}
			if ran[0] == 0 || ran[1] == 0 {
				t.Fatalf("%d invocations, resumed after %d iterations: the workers ran %v", invs, st.Inline, ran)
			}
			resumed = true
		}
		if !resumed {
			t.Fatalf("a region of %d invocations with a 2000-round body and a free computeAddr never resumed in parallel mid-invocation in ten runs", invs)
		}
	}
}

// TestGuardStaysInlineOnOneIterationInvocations: in a region whose every
// invocation has one iteration, the probe can take no scheduler sample,
// so at its budget it decides inline, with no scheduler rate, and the
// region ends on the calling thread without a worker phase.
func TestGuardStaysInlineOnOneIterationInvocations(t *testing.T) {
	const workers = 2
	engine.CloseIdle()
	defer engine.CloseIdle()
	st, _ := guarded(t, newCounting(2000, 1, 0, 0), workers)
	if st.Inline != st.Iterations || st.SchedNs != 0 {
		t.Fatalf("%d of %d iterations inline, scheduler rate %v ns/iteration; want all inline and no rate", st.Inline, st.Iterations, st.SchedNs)
	}
	rt := engine.Acquire(workers)
	threads := rt.Threads()
	rt.Release()
	if threads != 0 {
		t.Fatalf("the region started %d runtime threads, want none", threads)
	}
}

// TestGuardPanicInProbeReachesCaller: a panic in an iteration the probe
// runs continues on the caller of Run, and the pooled runtime, whose
// threads the probe never used, stays open and runs the next region.
func TestGuardPanicInProbeReachesCaller(t *testing.T) {
	const workers = 2
	engine.CloseIdle()
	defer engine.CloseIdle()
	created, _, _ := engine.Counters()
	w := newCounting(3, 10, 0, 0)
	w.panicAt = 0
	func() {
		defer func() {
			if r := recover(); r != "counting: injected fault" {
				t.Fatalf("recovered %v, want the probed iteration's panic", r)
			}
		}()
		Run(w, Options{Workers: workers})
	}()
	rt := engine.Acquire(workers)
	if rt.Closed() {
		t.Fatal("a panic in the probe closed the runtime")
	}
	w = newCounting(3, 10, 0, 0)
	want := w.sequentialRun()
	RunOn(rt, w, Options{Workers: workers})
	rt.Release()
	w.checkOnce(t, "after the panic", want)
	if c, _, _ := engine.Counters(); c != created+1 {
		t.Errorf("%d runtimes built, want the one the panicking run borrowed", c-created)
	}
}
