package speccross

import (
	"runtime"
	"sync/atomic"
	"testing"

	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/trace"
)

// counting is a region of disjoint epochs — no cross-epoch conflict, so no
// misspeculation — that counts every task execution, with spin work in the
// body to steer the guard. A task run speculatively on worker slowTid spins
// slowWork rounds instead, which only a speculative segment can see: the
// probe runs every task on worker 0.
type counting struct {
	*gridWorkload
	runs             []atomic.Int32 // per (epoch, task)
	work             int
	slowTid          int // -1: none
	slowWork         int
	panicAt          int // Run panics on this combined task; -1: never
	resumeSkipsEpoch bool
	sink             atomic.Uint64
}

func newCounting(epochs, tasks, blockSize, work int) *counting {
	return &counting{
		gridWorkload: newGrid(epochs, tasks, blockSize, tasks*blockSize),
		runs:         make([]atomic.Int32, epochs*tasks),
		work:         work, slowTid: -1, panicAt: -1,
	}
}

func (w *counting) spin(n int) {
	x := uint64(n)
	for range n {
		x = x*6364136223846793005 + 1442695040888963407
	}
	w.sink.Add(x)
}

func (w *counting) Run(epoch, task, tid int, sig *signature.Signature) {
	i := epoch*w.tasks + task
	if i == w.panicAt {
		panic("counting: injected fault")
	}
	if sig != nil && tid == w.slowTid {
		w.spin(w.slowWork)
	} else {
		w.spin(w.work)
	}
	w.runs[i].Add(1)
	w.gridWorkload.Run(epoch, task, tid, sig)
}

func (w *counting) ResumeSkipEpoch() bool { return w.resumeSkipsEpoch }

// checkOnce requires one execution per task and the sequential result.
func (w *counting) checkOnce(t *testing.T, what string, want []int64) {
	t.Helper()
	for i := range w.runs {
		if n := w.runs[i].Load(); n != 1 {
			t.Fatalf("%s: task (%d, %d) ran %d times", what, i/w.tasks, i%w.tasks, n)
		}
	}
	checkResult(t, w.gridWorkload, want)
}

// guarded runs w under Run with a recorder and checks what every guarded
// run of a conflict-free region must satisfy, whatever the guard decided:
// each task once, the sequential result, every task counted, the epochs
// committed speculatively plus those run inline equal to all of them, and
// one inline event on the control lane that says so.
func guarded(t *testing.T, w *counting, cfg Config) Stats {
	t.Helper()
	want := w.sequential()
	rec := trace.NewRecorder()
	cfg.Trace = rec
	st := Run(w, cfg)
	w.checkOnce(t, "guarded Run", want)
	total := int64(w.epochs)
	if st.Tasks != total*int64(w.tasks) || st.Misspeculations != 0 || st.Epochs+st.ReexecutedEpochs+st.Inline != total {
		t.Fatalf("%d tasks, %d misspeculations, %d + %d + %d epochs committed, re-executed and inline; want %d tasks, none, and %d epochs",
			st.Tasks, st.Misspeculations, st.Epochs, st.ReexecutedEpochs, st.Inline, total*int64(w.tasks), total)
	}
	sum := rec.Summary()
	if sum.Counts[trace.KindInline] != 1 || sum.Sums[trace.KindInline] != st.Inline || sum.Sums[trace.KindEpochCommit] != st.Epochs {
		t.Fatalf("%d inline events summing %d and %d committed epochs in the trace; want one of %d and %d",
			sum.Counts[trace.KindInline], sum.Sums[trace.KindInline], sum.Sums[trace.KindEpochCommit], st.Inline, st.Epochs)
	}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindInline && e.Lane != trace.LaneControl {
			t.Fatalf("inline event on lane %d, want the control lane", e.Lane)
		}
	}
	if st.Inline < 2 || st.InlineNs <= 0 {
		t.Fatalf("%d epochs inline at %v ns/task; want the probe's two sampled epochs at least, measured", st.Inline, st.InlineNs)
	}
	return st
}

// TestGuardStaysInlineOnTinyBodies: a region whose tasks cost far less
// than their signature and checking runs on the calling thread to its end
// and posts no phase — the pooled runtime it ran on has started no thread.
// The decision is a measurement, so the test asks for it in one run of
// five.
func TestGuardStaysInlineOnTinyBodies(t *testing.T) {
	const workers = 2
	defer engine.CloseIdle()
	for attempt := 0; attempt < 5; attempt++ {
		engine.CloseIdle()
		w := newCounting(40, 8, 2, 0)
		st := guarded(t, w, Config{Workers: workers, CheckpointEvery: 4})
		if st.Inline != int64(w.Epochs()) {
			continue
		}
		if st.Epochs != 0 || st.Checkpoints != 0 || st.CheckRequests != 0 {
			t.Fatalf("an inline region committed %d epochs, took %d checkpoints and sent %d check requests; want none", st.Epochs, st.Checkpoints, st.CheckRequests)
		}
		rt := engine.Acquire(workers)
		threads := rt.Threads()
		rt.Release()
		if threads != 0 {
			t.Fatalf("an inline region started %d runtime threads, want none", threads)
		}
		return
	}
	t.Fatal("a region of empty bodies never stayed inline in five runs")
}

// TestGuardSpeculatesOnCostlyBodies: a region whose bodies cost far more
// than their signature and checking speculates from where the probe
// stopped, and every task still runs once.
func TestGuardSpeculatesOnCostlyBodies(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// The bound's processors read 1 here: TestGuardOnOneProcessor.
		t.Skip("speculation cannot beat the inline execution on one processor")
	}
	for attempt := 0; attempt < 10; attempt++ {
		w := newCounting(24, 8, 2, 20000)
		st := guarded(t, w, Config{Workers: 2, CheckpointEvery: 4})
		if st.Epochs == 0 {
			continue
		}
		if st.Checkpoints == 0 {
			t.Fatalf("a run that committed %d epochs speculatively took no checkpoint", st.Epochs)
		}
		return
	}
	t.Fatal("a region of 20000-round bodies never speculated in ten runs")
}

// TestGuardSegmentCheckFallsBack: a region the probe finds worth
// speculating, whose speculative segment then costs more per task than the
// inline execution — worker 1's speculative tasks spin a hundred times
// longer — runs the rest of the region inline after that committed
// segment, and never speculates again.
func TestGuardSegmentCheckFallsBack(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("speculation cannot beat the inline execution on one processor")
	}
	const every = 4
	for attempt := 0; attempt < 10; attempt++ {
		w := newCounting(32, 8, 2, 20000)
		w.slowTid, w.slowWork = 1, 2000000
		st := guarded(t, w, Config{Workers: 2, CheckpointEvery: every})
		if st.Epochs == 0 {
			continue
		}
		if st.Epochs != every || st.Inline != int64(w.Epochs()-every) {
			t.Fatalf("%d epochs committed speculatively, %d inline; want one segment of %d and the rest inline", st.Epochs, st.Inline, every)
		}
		if st.SpecNs < st.InlineNs {
			t.Fatalf("fell back with the segment at %v ns/task below the inline %v", st.SpecNs, st.InlineNs)
		}
		return
	}
	t.Fatal("the probe never decided to speculate in ten runs")
}

// TestGuardOnOneProcessor: with one processor the bound's min(GOMAXPROCS,
// W+S) reads 1, so speculation costs at least the instrumented body plus
// its checking, which is never below the inline rate: a region of costly
// bodies that speculates on two processors stays on the calling thread.
func TestGuardOnOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if b := specBound(100, 10, 4, 2, 1); b != 110 {
		t.Fatalf("bound on one processor %v ns/task, want instrumented + check = 110", b)
	}
	for attempt := 0; attempt < 5; attempt++ {
		w := newCounting(24, 8, 32, 2000)
		st := guarded(t, w, Config{Workers: 2, CheckpointEvery: 4})
		if st.Inline == int64(w.Epochs()) && st.Epochs == 0 && st.SpecNs >= st.InlineNs {
			return
		}
	}
	t.Fatal("on one processor the guard speculated, or its bound was below the inline rate, in five runs")
}

// TestGuardSkipsForcedMisspeculation: a run that asks for an injected
// misspeculation is unguarded — no epoch inline, and the one it asked for.
func TestGuardSkipsForcedMisspeculation(t *testing.T) {
	w := newCounting(12, 4, 2, 0)
	want := w.sequential()
	st := Run(w, Config{Workers: 2, CheckpointEvery: 4, ForceMisspecEpoch: 5})
	checkResult(t, w.gridWorkload, want)
	if st.Inline != 0 || st.Misspeculations != 1 || st.InlineNs != 0 || st.SpecNs != 0 {
		t.Fatalf("forced run: %d epochs inline, %d misspeculations, rates %v and %v; want 0, 1 and none",
			st.Inline, st.Misspeculations, st.InlineNs, st.SpecNs)
	}
}

// TestGuardPanicInProbeReachesCaller: a panic in a task the probe runs
// continues on the caller of Run, and the pooled runtime, whose threads the
// probe never used, stays open and runs the next region.
func TestGuardPanicInProbeReachesCaller(t *testing.T) {
	const workers = 2
	engine.CloseIdle()
	defer engine.CloseIdle()
	created, _, _ := engine.Counters()
	// A sampled task, and one past the samples still in epoch 0, which the
	// probe always runs on the calling thread.
	for _, at := range []int{1, 20} {
		w := newCounting(12, 24, 2, 0)
		w.panicAt = at
		func() {
			defer func() {
				if r := recover(); r != "counting: injected fault" {
					t.Fatalf("recovered %v, want the probed task's panic", r)
				}
			}()
			Run(w, Config{Workers: workers, CheckpointEvery: 4})
		}()
	}
	rt := engine.Acquire(workers)
	if rt.Closed() {
		t.Fatal("a panic in the probe closed the runtime")
	}
	w := newCounting(12, 8, 2, 0)
	want := w.sequential()
	RunOn(rt, w, Config{Workers: workers, CheckpointEvery: 4})
	rt.Release()
	w.checkOnce(t, "after the panic", want)
	if c, _, _ := engine.Counters(); c != created+1 {
		t.Errorf("%d runtimes built, want the one the panicking runs borrowed", c-created)
	}
}

// TestGuardResumeSkipEpochIsCaught: the resume-skip-epoch seam loses the
// epoch after the probe's last one, whatever the guard decides, so the
// harness that looks for it has something to find.
func TestGuardResumeSkipEpochIsCaught(t *testing.T) {
	// A fresh runtime's budget is the floor. A pooled one's is the start-up
	// an earlier test measured, which can outlast the whole region and
	// leave the seam no epoch to skip.
	engine.CloseIdle()
	w := newCounting(40, 8, 2, 0)
	w.resumeSkipsEpoch = true
	st := Run(w, Config{Workers: 2, CheckpointEvery: 4})
	if st.Epochs+st.ReexecutedEpochs+st.Inline != int64(w.Epochs()-1) {
		t.Fatalf("%d + %d + %d epochs ran, want all but the skipped one of %d", st.Epochs, st.ReexecutedEpochs, st.Inline, w.Epochs())
	}
	skipped := 0
	for e := 0; e < w.epochs; e++ {
		ran := w.runs[e*w.tasks].Load()
		for task := 0; task < w.tasks; task++ {
			if n := w.runs[e*w.tasks+task].Load(); n != ran || n > 1 {
				t.Fatalf("task (%d, %d) ran %d times, task (%d, 0) %d", e, task, n, e, ran)
			}
		}
		if ran == 0 {
			skipped++
		}
	}
	if skipped != 1 {
		t.Fatalf("%d epochs never ran under the seam, want 1", skipped)
	}
}
