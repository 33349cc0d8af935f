package domore

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/engine"
)

func checkIrregular(t *testing.T, what string, w *irregular, want []int64) {
	t.Helper()
	for a := range want {
		if w.data[a] != want[a] {
			t.Fatalf("%s: data[%d] = %d, sequential %d", what, a, w.data[a], want[a])
		}
	}
}

// TestPooledRunAllocatesWhatRunOnDoes is the deterministic cost gate of the
// engine pool: the second and later Run (or RunSharded, which is Run) over
// a workload — each borrowing the runtime the one before released —
// allocates exactly what RunOn does on a runtime its caller keeps. No ring
// or shadow table is built per call, and no goroutine started. A runtime
// starts its threads the first time a run goes parallel, and Run's guard
// decides that by measurement, so one parallel run on the pooled runtime
// starts them before the count.
func TestPooledRunAllocatesWhatRunOnDoes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const workers = 2
	w := newIrregular(rand.New(rand.NewSource(5)), 6, 40, 48, 2)
	want := w.sequentialRun()
	opts := Options{Workers: workers, Lanes: 2}
	for _, tc := range []struct {
		name string
		run  func(Workload, Options) Stats
	}{
		{"Run", Run},
		{"RunSharded", RunSharded},
	} {
		engine.CloseIdle()
		rt := engine.New(workers)
		kept := testing.AllocsPerRun(10, func() {
			clear(w.data)
			RunOn(rt, w, opts)
		})
		rt.Close()
		checkIrregular(t, "RunOn", w, want)

		RunParallel(w, opts)
		goroutines := 0
		pooled := testing.AllocsPerRun(10, func() {
			clear(w.data)
			tc.run(w, opts)
			if goroutines == 0 {
				goroutines = runtime.NumGoroutine() // after the warm-up run
			}
		})
		checkIrregular(t, "pooled "+tc.name, w, want)
		if pooled != kept {
			t.Errorf("a pooled %s allocates %v objects, RunOn on a kept runtime %v", tc.name, pooled, kept)
		}
		if n := runtime.NumGoroutine(); n != goroutines {
			t.Errorf("%s: %d goroutines after 10 pooled runs, %d after the first", tc.name, n, goroutines)
		}
	}
	engine.CloseIdle()
}

// TestPooledRunRebuildsOnlyWhatDiffers: a parallel run that follows a run
// with another QueueCap, lane count or policy on the same pooled runtime
// still equals the sequential result, and rebuilds the rings only for a new
// capacity.
func TestPooledRunRebuildsOnlyWhatDiffers(t *testing.T) {
	engine.CloseIdle()
	defer engine.CloseIdle()
	const workers = 3
	run := func(what string, opts Options, rr bool) {
		t.Helper()
		opts.Workers = workers
		w := newIrregular(rand.New(rand.NewSource(11)), 5, 30, 40, 2)
		want := w.sequentialRun()
		var run Workload = w
		if rr {
			run = roundRobin{w}
		}
		st := RunParallel(run, opts)
		if st.Iterations != 150 || st.SyncConditions == 0 {
			t.Errorf("%s: %d iterations, %d sync conditions; want 150 and some", what, st.Iterations, st.SyncConditions)
		}
		checkIrregular(t, what, w, want)
	}
	ring := func() any {
		rt := engine.Acquire(workers)
		defer rt.Release()
		// Not stateOn: it would rebuild the rings for the capacity it is
		// asked for.
		return rt.State(stateKey{}, nil).(*state).queues[0]
	}
	created, _, _ := engine.Counters()

	run("2 lanes", Options{QueueCap: 64, Lanes: 2}, false)
	first := ring()
	run("round-robin", Options{QueueCap: 64}, true)
	if ring() != first {
		t.Error("Run under the round-robin seam at one capacity rebuilt the rings")
	}
	run("3 lanes", Options{QueueCap: 64, Lanes: 3}, false)
	if ring() != first {
		t.Error("Lanes 2 → 3 rebuilt the rings")
	}
	run("small rings", Options{QueueCap: 2}, false)
	if ring() == first {
		t.Error("QueueCap 64 → 2 kept the rings")
	}
	run("defaults", Options{}, false)

	if c, _, _ := engine.Counters(); c != created+1 {
		t.Errorf("%d runtimes built for five runs and four look-ins, want 1", c-created)
	}
}

// TestPooledRuntimePinsNoWorkload: once a run has returned and the caller
// has dropped the workload, the runtime parked in the pool does not keep it
// reachable through its state.
func TestPooledRuntimePinsNoWorkload(t *testing.T) {
	for name, run := range map[string]func(Workload, Options) Stats{"Run": Run, "RunSharded": RunSharded} {
		engine.CloseIdle()
		collected := make(chan struct{})
		func() {
			w := newIrregular(rand.New(rand.NewSource(7)), 4, 20, 32, 2)
			runtime.SetFinalizer(w, func(*irregular) { close(collected) })
			run(w, Options{Workers: 2, Lanes: 2})
		}()
		if _, _, idle := engine.Counters(); idle != 1 {
			t.Fatalf("%s: %d runtimes in the pool after the run, want 1", name, idle)
		}
		deadline := time.After(5 * time.Second)
		for done := false; !done; {
			runtime.GC()
			select {
			case <-collected:
				done = true
			case <-deadline:
				t.Fatalf("the workload of a finished %s is still reachable while its runtime sits in the pool", name)
			case <-time.After(time.Millisecond):
			}
		}
	}
	engine.CloseIdle()
}
