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
// engine pool for both schedulers: the second and later Run (RunSharded)
// over a workload — each borrowing the runtime the one before released —
// allocates exactly what RunOn (RunShardedOn) does on a runtime its caller
// keeps. No ring, shadow table, chunk arena or lane is built per call, and
// no goroutine started.
func TestPooledRunAllocatesWhatRunOnDoes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const workers = 2
	w := newIrregular(rand.New(rand.NewSource(5)), 6, 40, 48, 2)
	want := w.sequentialRun()
	opts := Options{Workers: workers, Lanes: 2, Batch: 16}
	for _, tc := range []struct {
		name  string
		run   func(Workload, Options) Stats
		runOn func(*engine.Runtime, Workload, Options) Stats
	}{
		{"Run", Run, RunOn},
		{"RunSharded", RunSharded, RunShardedOn},
	} {
		engine.CloseIdle()
		rt := engine.New(workers)
		kept := testing.AllocsPerRun(10, func() {
			clear(w.data)
			tc.runOn(rt, w, opts)
		})
		rt.Close()
		checkIrregular(t, tc.name+"On", w, want)

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
			t.Errorf("a pooled %s allocates %v objects, %sOn on a kept runtime %v", tc.name, pooled, tc.name, kept)
		}
		if n := runtime.NumGoroutine(); n != goroutines {
			t.Errorf("%s: %d goroutines after 10 pooled runs, %d after the first", tc.name, n, goroutines)
		}
	}
	engine.CloseIdle()
}

// TestPooledRunRebuildsOnlyWhatDiffers: a run that follows a run with
// another QueueCap or lane count — or the other scheduler — on the same
// pooled runtime still equals the sequential result, and rebuilds the rings
// only for a new capacity and the sharded driver only for a new lane count.
func TestPooledRunRebuildsOnlyWhatDiffers(t *testing.T) {
	engine.CloseIdle()
	defer engine.CloseIdle()
	const workers = 3
	run := func(what string, sharded bool, opts Options) {
		t.Helper()
		opts.Workers, opts.Batch = workers, 8
		w := newIrregular(rand.New(rand.NewSource(11)), 5, 30, 40, 2)
		want := w.sequentialRun()
		var st Stats
		if sharded {
			st = RunSharded(w, opts)
		} else {
			st = Run(w, opts)
		}
		if st.Iterations != 150 || st.SyncConditions == 0 {
			t.Errorf("%s: %d iterations, %d sync conditions; want 150 and some", what, st.Iterations, st.SyncConditions)
		}
		checkIrregular(t, what, w, want)
	}
	type built struct {
		ring   any
		driver *shardedRun
	}
	look := func() (b built) {
		rt := engine.Acquire(workers)
		defer rt.Release()
		// Not stateOn: it would rebuild the rings for the capacity it is
		// asked for.
		st := rt.State(stateKey{}, nil).(*state)
		return built{st.queues[0], st.sharded}
	}
	created, _, _ := engine.Counters()

	run("sharded, 2 lanes", true, Options{QueueCap: 64, Lanes: 2})
	first := look()
	run("single scheduler", false, Options{QueueCap: 64})
	if b := look(); b != first {
		t.Errorf("Run after RunSharded at one capacity: rings kept %v, driver kept %v; want both", b.ring == first.ring, b.driver == first.driver)
	}
	run("sharded, 3 lanes", true, Options{QueueCap: 64, Lanes: 3})
	second := look()
	if second.ring != first.ring || second.driver == first.driver {
		t.Errorf("Lanes 2 → 3: rings kept %v, driver kept %v; want rings kept, driver rebuilt", second.ring == first.ring, second.driver == first.driver)
	}
	run("sharded, small rings", true, Options{QueueCap: 2, Lanes: 3})
	if b := look(); b.ring == second.ring || b.driver != second.driver {
		t.Errorf("QueueCap 64 → 2: rings kept %v, driver kept %v; want rings rebuilt, driver kept", b.ring == second.ring, b.driver == second.driver)
	}
	run("defaults", false, Options{})

	if c, _, _ := engine.Counters(); c != created+1 {
		t.Errorf("%d runtimes built for five runs and four look-ins, want 1", c-created)
	}
}

// TestPooledRuntimePinsNoWorkload: once a run has returned and the caller
// has dropped the workload, the runtime parked in the pool does not keep it
// reachable — through the state, the sharded driver's copy of the options,
// or a lane.
func TestPooledRuntimePinsNoWorkload(t *testing.T) {
	for name, run := range map[string]func(Workload, Options) Stats{"Run": Run, "RunSharded": RunSharded} {
		engine.CloseIdle()
		collected := make(chan struct{})
		func() {
			w := newIrregular(rand.New(rand.NewSource(7)), 4, 20, 32, 2)
			runtime.SetFinalizer(w, func(*irregular) { close(collected) })
			run(w, Options{Workers: 2, Lanes: 2, Batch: 8})
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
