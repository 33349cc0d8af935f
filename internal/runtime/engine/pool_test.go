package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runPhases posts a phase to every worker and to aux auxiliary threads of
// rt, quiesces, and returns how many phases ran.
func runPhases(rt *Runtime, aux int) int64 {
	var ran atomic.Int64
	fn := func() { ran.Add(1) }
	for tid := 0; tid < rt.Workers(); tid++ {
		rt.Go(tid, "test", "worker", fn)
	}
	for i := 0; i < aux; i++ {
		rt.GoAux(i, "test", "aux", fn)
	}
	rt.Wait()
	return ran.Load()
}

func idleRuntimes() int64 {
	_, _, n := Counters()
	return n
}

func TestAcquireAfterReleaseReturnsTheSameRuntime(t *testing.T) {
	CloseIdle()
	base := runtime.NumGoroutine()
	rt := Acquire(2)
	if rt.Reused() {
		t.Error("a runtime built for this Acquire reports Reused")
	}
	if got := runPhases(rt, 1); got != 3 {
		t.Fatalf("%d phases ran, want 3", got)
	}
	threads, version, goroutines := rt.Threads(), rt.StateVersion(), runtime.NumGoroutine()
	_, reusedBefore, _ := Counters()
	rt.Release()
	if n := idleRuntimes(); n != 1 {
		t.Errorf("%d idle runtimes after one Release, want 1", n)
	}

	again := Acquire(2)
	if again != rt {
		t.Fatal("Acquire after Release built a new runtime")
	}
	if !again.Reused() {
		t.Error("Reused() = false for a runtime taken from the pool")
	}
	if _, reusedNow, _ := Counters(); reusedNow != reusedBefore+1 {
		t.Errorf("reused counter went from %d to %d over one pooled Acquire", reusedBefore, reusedNow)
	}
	if again.Threads() != threads || runtime.NumGoroutine() != goroutines {
		t.Errorf("%d threads, %d goroutines after re-acquiring; %d and %d before the Release",
			again.Threads(), runtime.NumGoroutine(), threads, goroutines)
	}
	if again.StateVersion() == version {
		t.Error("StateVersion unchanged across Release/Acquire: a rewound workload's image would be taken for current")
	}
	if got := runPhases(again, 1); got != 3 {
		t.Fatalf("%d phases ran on the re-acquired runtime, want 3", got)
	}
	if again.Threads() != threads || runtime.NumGoroutine() != goroutines {
		t.Errorf("running on the re-acquired runtime started goroutines: %d threads, was %d", again.Threads(), threads)
	}

	// A runtime for another worker count is not this one.
	other := Acquire(3)
	if other == rt || other.Workers() != 3 {
		t.Errorf("Acquire(3) returned a runtime for %d workers", other.Workers())
	}
	other.Release()
	again.Release()
	CloseIdle()
	if !rt.Closed() || !other.Closed() {
		t.Error("CloseIdle left a pooled runtime open")
	}
	settle(t, base)
}

func TestReleasePoolsNothingUnusable(t *testing.T) {
	CloseIdle()
	base := runtime.NumGoroutine()

	// Torn down by a thread panic.
	failed := Acquire(1)
	failed.Go(0, "test", "worker", func() { panic("worker fault") })
	func() {
		defer func() { _ = recover() }()
		failed.Wait()
	}()
	failed.Release()
	if n := idleRuntimes(); n != 0 {
		t.Errorf("%d idle runtimes after releasing a torn-down one, want 0", n)
	}

	// A phase still outstanding: closed, not pooled.
	busy := Acquire(1)
	release := make(chan struct{})
	busy.Go(0, "test", "worker", func() { <-release })
	close(release)
	busy.Release()
	if !busy.Closed() || idleRuntimes() != 0 {
		t.Errorf("a runtime released with a phase outstanding: closed %v, %d idle; want it closed and dropped", busy.Closed(), idleRuntimes())
	}

	// Released twice: pooled once.
	rt := Acquire(1)
	runPhases(rt, 0)
	rt.Release()
	rt.Release()
	if n := idleRuntimes(); n != 1 {
		t.Errorf("%d idle runtimes after a double Release, want 1", n)
	}
	if a, b := Acquire(1), Acquire(1); a != rt || b == rt {
		t.Error("a double Release put the runtime in the pool twice")
	} else {
		a.Release()
		b.Release()
	}
	CloseIdle()
	settle(t, base)
}

func TestConcurrentAcquireRelease(t *testing.T) {
	CloseIdle()
	base := runtime.NumGoroutine()
	const callers, cycles = 8, 200
	var total atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				rt := Acquire(1 + c%2)
				total.Add(runPhases(rt, i%2))
				rt.Release()
			}
		}(c)
	}
	wg.Wait()
	// Callers with one worker run 1 or 2 phases a cycle, those with two 2 or 3.
	if want := int64(callers / 2 * cycles / 2 * (1 + 2 + 2 + 3)); total.Load() != want {
		t.Errorf("%d phases ran, want %d", total.Load(), want)
	}
	if n, max := idleRuntimes(), int64(runtime.GOMAXPROCS(0)); n < 1 || n > max {
		t.Errorf("%d idle runtimes after the callers finished, want 1..%d", n, max)
	}
	CloseIdle()
	settle(t, base)
}

func TestIdleBoundHoldsAndExcessIsClosed(t *testing.T) {
	CloseIdle()
	base := runtime.NumGoroutine()
	max := runtime.GOMAXPROCS(0)
	const excess = 3
	held := make([]*Runtime, max+excess)
	for i := range held {
		held[i] = Acquire(2)
		runPhases(held[i], 1)
	}
	for _, rt := range held {
		rt.Release()
	}
	if n := idleRuntimes(); n != int64(max) {
		t.Errorf("%d idle runtimes, want the bound GOMAXPROCS = %d", n, max)
	}
	// The least recently released went first.
	for i, rt := range held {
		if want := i < excess; rt.Closed() != want {
			t.Errorf("runtime released %d of %d: Closed() = %v, want %v", i+1, len(held), rt.Closed(), want)
		}
	}
	// Most recently released first.
	if rt := Acquire(2); rt != held[len(held)-1] {
		t.Error("Acquire did not return the most recently released runtime")
	} else {
		rt.Release()
	}
	CloseIdle()
	if n := idleRuntimes(); n != 0 {
		t.Errorf("%d idle runtimes after CloseIdle", n)
	}
	settle(t, base)
}

// TestReleasedThreadsPark: a pooled runtime's threads reach the parked
// state — blocked on their wake channel, not yielding through the idle spin
// — and a phase posted by the next owner wakes them.
func TestReleasedThreadsPark(t *testing.T) {
	CloseIdle()
	rt := Acquire(3)
	runPhases(rt, 2)
	rt.Release()
	deadline := time.Now().Add(5 * time.Second)
	for i, th := range rt.threads {
		for !th.parked.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("thread %d of a pooled runtime never parked", i)
			}
			runtime.Gosched()
		}
	}
	if again := Acquire(3); again != rt {
		t.Fatal("pooled runtime not handed back")
	}
	if got := runPhases(rt, 2); got != 5 {
		t.Errorf("%d phases ran on threads woken from the pool, want 5", got)
	}
	rt.Release()
	CloseIdle()
}

// forgetful is an engine state holding a reference for its owner.
type forgetful struct{ ref *int }

func (f *forgetful) Forget() { f.ref = nil }

func TestReleaseTellsStatesToForget(t *testing.T) {
	CloseIdle()
	type key struct{}
	rt := Acquire(1)
	st := rt.State(key{}, func() any { return &forgetful{} }).(*forgetful)
	st.ref = new(int)
	version := rt.StateVersion()
	rt.ReleaseStale()
	if st.ref == nil || Acquire(1) != rt || rt.StateVersion() != version {
		t.Fatal("ReleaseStale invalidated the runtime (or the pool lost it)")
	}
	rt.Release()
	if st.ref != nil {
		t.Error("Release left a state holding its last owner's reference")
	}
	CloseIdle()
}
