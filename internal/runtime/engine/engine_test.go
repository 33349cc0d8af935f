package engine

import (
	"bytes"
	"reflect"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settle waits for the goroutine count to come back down to base: Close
// returns once every thread has left its loop, but the scheduler may take a
// moment longer to retire the goroutines.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want the baseline %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestPhasesRunOnStandingThreads(t *testing.T) {
	base := runtime.NumGoroutine()
	rt := New(3)
	var ran [5]atomic.Int64
	for round := 0; round < 50; round++ {
		for tid := 0; tid < 3; tid++ {
			tid := tid
			rt.Go(tid, "test", "worker", func() { ran[tid].Add(1) })
		}
		if round%2 == 1 {
			for i := 0; i < 2; i++ {
				i := i
				rt.GoAux(i, "test", "aux", func() { ran[3+i].Add(1) })
			}
		}
		rt.Wait()
	}
	for i, want := range []int64{50, 50, 50, 25, 25} {
		if got := ran[i].Load(); got != want {
			t.Errorf("thread %d ran %d phases, want %d", i, got, want)
		}
	}
	if rt.Threads() != 5 {
		t.Errorf("Threads() = %d after 50 rounds, want the 5 first used", rt.Threads())
	}
	rt.Close()
	rt.Close() // idempotent
	if !rt.Closed() {
		t.Error("Closed() = false after Close")
	}
	settle(t, base)
}

// TestParkedThreadIsWoken posts to a thread only after it has outlasted its
// idle spin and parked, and from a control goroutine that itself has to
// park in Wait.
func TestParkedThreadIsWoken(t *testing.T) {
	rt := New(1)
	defer rt.Close()
	rt.Go(0, "test", "worker", func() {})
	rt.Wait()
	th := rt.threads[0]
	for !th.parked.Load() {
		runtime.Gosched()
	}
	release := make(chan struct{})
	done := false
	rt.Go(0, "test", "worker", func() { <-release; done = true })
	go func() {
		for !rt.parked.Load() {
			runtime.Gosched()
		}
		close(release)
	}()
	rt.Wait()
	if !done {
		t.Fatal("Wait returned before the phase finished")
	}
}

func TestThreadPanicIsReraisedOnControl(t *testing.T) {
	base := runtime.NumGoroutine()
	rt := New(2)
	// The survivor waits the way engine loops do: through Pause, which
	// gives up once the stop word is raised.
	rt.Go(0, "test", "worker", func() {
		for spins := 0; rt.Pause(spins); spins++ {
		}
	})
	rt.Go(1, "test", "worker", func() { panic("worker fault") })
	func() {
		defer func() {
			if r := recover(); r != "worker fault" {
				t.Errorf("recovered %v, want the worker's panic value", r)
			}
		}()
		rt.Wait()
		t.Error("Wait returned normally")
	}()
	if !rt.Closed() {
		t.Error("runtime still open after a thread panicked")
	}
	settle(t, base)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("posting to a torn-down runtime did not panic")
			}
		}()
		rt.Go(0, "test", "worker", func() {})
	}()
}

func TestSettleClosesOnControlPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	rt := New(1)
	func() {
		defer func() {
			if r := recover(); r != "control fault" {
				t.Errorf("recovered %v, want the control goroutine's panic value", r)
			}
		}()
		defer rt.Settle()
		rt.Go(0, "test", "worker", func() {
			for spins := 0; rt.Pause(spins); spins++ {
			}
		})
		panic("control fault")
	}()
	if !rt.Closed() {
		t.Error("runtime still open after its control goroutine panicked")
	}
	settle(t, base)
}

func TestPostingTwiceWithoutWaitPanics(t *testing.T) {
	rt := New(1)
	defer rt.Close()
	rt.Go(0, "test", "worker", func() {})
	defer func() {
		if recover() == nil {
			t.Error("second post to a busy thread did not panic")
		}
	}()
	rt.Go(0, "test", "worker", func() {})
}

func TestBarrierAbortedByThreadPanic(t *testing.T) {
	rt := New(2)
	bar := rt.Barrier()
	rt.Go(0, "test", "worker", func() { bar.Wait() })
	rt.Go(1, "test", "worker", func() { panic("never reaches the barrier") })
	defer func() {
		if recover() == nil {
			t.Error("Wait returned normally")
		}
	}()
	rt.Wait()
}

// TestLabelsAreSetPerPhaseAndRestored checks the label bookkeeping through
// the cached contexts; TestThreadsAreLabelledInGoroutineProfile checks what
// a profile records.
func TestLabelsAreSetPerPhaseAndRestored(t *testing.T) {
	rt := New(1)
	defer rt.Close()
	var got [2]string
	for _, want := range [][2]string{{"domore", "worker"}, {"speccross", "worker"}, {"domore", "worker"}} {
		rt.Go(0, want[0], want[1], func() {
			ctx := rt.threads[0].labels.get(rt.threads[0].engine, rt.threads[0].lane)
			got[0], _ = pprof.Label(ctx, "engine")
			got[1], _ = pprof.Label(ctx, "lane")
		})
		rt.Wait()
		if got != want {
			t.Errorf("phase labelled %v, want %v", got, want)
		}
	}
	if n := len(rt.threads[0].labels.entries); n != 2 {
		t.Errorf("%d label contexts cached for two label sets", n)
	}
	ran := false
	rt.Labeled("adaptive", "control", func() {
		rt.Labeled("domore", "scheduler", func() { ran = true })
		if e, _ := pprof.Label(rt.labels.cur, "engine"); e != "adaptive" {
			t.Errorf("outer label not restored: engine=%q", e)
		}
	})
	if !ran || rt.labels.cur != nil {
		t.Errorf("Labeled did not run or did not restore the unlabelled state")
	}
}

// TestThreadsAreLabelledInGoroutineProfile parks every kind of runtime
// thread inside a phase — two workers, an auxiliary lane, and the control
// goroutine inside Labeled — and reads the goroutine profile: each must
// appear under its phase's {engine, lane} labels, which is what attributes
// engine time to lanes in a CPU profile.
func TestThreadsAreLabelledInGoroutineProfile(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	release := make(chan struct{})
	var parked sync.WaitGroup
	parked.Add(3)
	park := func() { parked.Done(); <-release }
	rt.Go(0, "domore", "worker", park)
	rt.Go(1, "domore", "worker", park)
	rt.GoAux(0, "speccross", "checker", park)
	parked.Wait()
	var prof bytes.Buffer
	rt.Labeled("domore", "scheduler", func() { pprof.Lookup("goroutine").WriteTo(&prof, 1) })
	close(release)
	rt.Wait()

	got := map[string]int{}
	for _, m := range regexp.MustCompile(`(?m)^(\d+) @ .*\n# labels: (.*)$`).FindAllStringSubmatch(prof.String(), -1) {
		n, _ := strconv.Atoi(m[1])
		got[m[2]] += n
	}
	want := map[string]int{
		`{"engine":"domore", "lane":"worker"}`:     2,
		`{"engine":"speccross", "lane":"checker"}`: 1,
		`{"engine":"domore", "lane":"scheduler"}`:  1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("goroutines by labels = %v, want %v\n%s", got, want, prof.String())
	}
}

func TestStateIsBuiltOnce(t *testing.T) {
	rt := New(1)
	defer rt.Close()
	type key struct{}
	builds := 0
	mk := func() any { builds++; return new(int) }
	a := rt.State(key{}, mk)
	b := rt.State(key{}, mk)
	if a != b || builds != 1 {
		t.Errorf("State built %d times, same value %v", builds, a == b)
	}
	v := rt.StateVersion()
	rt.StateChanged()
	if rt.StateVersion() == v {
		t.Error("StateChanged did not advance StateVersion")
	}
}

// TestIdleHandOffAllocatesNothing: posting a bound phase and quiescing is
// the per-window cost of a standing runtime, and it must not allocate.
func TestIdleHandOffAllocatesNothing(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	fn := func() {}
	round := func() {
		rt.Go(0, "test", "worker", fn)
		rt.Go(1, "test", "worker", fn)
		rt.Labeled("test", "control", fn)
		rt.Wait()
	}
	round()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("%v allocations per hand-off, want 0", n)
	}
}

// TestStartupIsMeasuredPerBatch: a runtime measures how long the phases
// posted on it took to start — from the first post of a batch to the
// earliest start among its threads — at each Wait, and a guard's budget is
// that start-up, never below FloorReads clock reads.
func TestStartupIsMeasuredPerBatch(t *testing.T) {
	rt := New(2)
	defer rt.Close()
	floor := FloorReads * ClockCost()
	if rt.Startup() != 0 || rt.Budget() != floor {
		t.Fatalf("before any phase: start-up %v, budget %v; want 0 and the floor %v", rt.Startup(), rt.Budget(), floor)
	}
	// The second thread's phase is posted after a pause; the batch's
	// start-up still counts from the first post, so it is no later than
	// the first thread's start.
	const pause = 2 * time.Millisecond
	start := time.Now()
	var began atomic.Int64
	rt.Go(0, "test", "worker", func() { began.Store(int64(time.Since(start))) })
	for time.Since(start) < pause {
	}
	rt.Go(1, "test", "worker", func() {})
	rt.Wait()
	if s := rt.Startup(); s <= 0 || s > time.Duration(began.Load()) {
		t.Fatalf("start-up %v, want positive and no later than the first thread began (%v)", s, time.Duration(began.Load()))
	}
	if b := rt.Budget(); b != max(rt.Startup(), floor) {
		t.Fatalf("budget %v, want max(start-up %v, floor %v)", b, rt.Startup(), floor)
	}
}
