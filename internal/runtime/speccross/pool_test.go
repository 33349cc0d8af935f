package speccross

import (
	"runtime"
	"testing"
	"time"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/signature"
)

// borrowed runs f on the state of the runtime the pool would hand the next
// Run of the given worker count.
func borrowed(workers int, f func(st *state)) {
	rt := engine.Acquire(workers)
	defer rt.Release()
	f(stateOn(rt, workers))
}

func checkDelta(t *testing.T, what string, w *deltaArrayWorkload, want []int64) {
	t.Helper()
	for c, v := range want {
		if w.state[c] != v {
			t.Fatalf("%s: state[%d] = %d, sequential %d", what, c, w.state[c], v)
		}
	}
}

// TestPooledRunAllocatesWhatRunOnDoes is the deterministic cost gate of the
// engine pool: the second and later Run over a workload — each borrowing
// the runtime the one before released — allocates exactly what RunOn does
// on a runtime its caller keeps. No ring, arena, checker row, shard or base
// image is built per call, and no goroutine started.
func TestPooledRunAllocatesWhatRunOnDoes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	engine.CloseIdle()
	const workers = 2
	w := newDeltaArray(12, 8, 256)
	want := w.sequential()
	cfg := Config{Workers: workers, SigKind: signature.Exact, CheckpointEvery: 4, ForceMisspecEpoch: 6}

	rt := engine.New(workers)
	defer rt.Close()
	kept := testing.AllocsPerRun(10, func() {
		clear(w.state)
		rt.StateChanged()
		RunOn(rt, w, cfg)
	})
	checkDelta(t, "RunOn", w, want)

	goroutines := 0
	pooled := testing.AllocsPerRun(10, func() {
		clear(w.state) // rewound behind the pool's back: Release covers it
		Run(w, cfg)
		if goroutines == 0 {
			goroutines = runtime.NumGoroutine() // after the warm-up run
		}
	})
	checkDelta(t, "pooled Run", w, want)
	if pooled != kept {
		t.Errorf("a pooled Run allocates %v objects, RunOn on a kept runtime %v", pooled, kept)
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Errorf("%d goroutines after 10 pooled runs, %d after the first", n, goroutines)
	}
	engine.CloseIdle()
}

// TestPooledRunRebuildsOnlyWhatDiffers: a Run that follows a Run with
// another QueueCap, SigKind or CheckerShards on the same pooled runtime
// still equals the sequential result, and rebuilds the rings only for a new
// capacity, the arenas only for a new signature kind, and the shard set
// only for a new shard count.
func TestPooledRunRebuildsOnlyWhatDiffers(t *testing.T) {
	engine.CloseIdle()
	defer engine.CloseIdle()
	const workers = 2
	run := func(what string, cfg Config) {
		t.Helper()
		cfg.Workers, cfg.CheckpointEvery, cfg.ForceMisspecEpoch = workers, 4, 6
		w := newDeltaArray(12, 8, 256)
		want := w.sequential()
		// Range signatures of this workload's interleaved cells overlap, so
		// there may be more rollbacks than the forced one.
		if st := Run(w, cfg); st.Misspeculations == 0 || st.DeltaRestores != st.Misspeculations {
			t.Errorf("%s: %d misspeculations, %d delta restores; want the forced one at least, each restored", what, st.Misspeculations, st.DeltaRestores)
		}
		checkDelta(t, what, w, want)
	}
	type built struct {
		ring   any
		arena  *signature.Signature
		shards int
	}
	look := func() (b built) {
		borrowed(workers, func(st *state) {
			b = built{st.queues[0], &st.local[0].sigs[0][0], len(st.shards)}
		})
		return b
	}
	created, _, _ := engine.Counters()

	run("first", Config{QueueCap: 64, SigKind: signature.Range, CheckerShards: 2})
	first := look()
	run("other shard count", Config{QueueCap: 64, SigKind: signature.Range, CheckerShards: 1})
	if b := look(); b.ring != first.ring || b.arena != first.arena || b.shards != 1 {
		t.Errorf("CheckerShards 2 → 1: rings kept %v, arenas kept %v, %d shards; want both kept, 1 shard",
			b.ring == first.ring, b.arena == first.arena, b.shards)
	}
	run("other signature kind", Config{QueueCap: 64, SigKind: signature.Exact, CheckerShards: 1})
	second := look()
	if second.ring != first.ring || second.arena == first.arena {
		t.Errorf("SigKind range → exact: rings kept %v, arenas kept %v; want rings kept, arenas rebuilt",
			second.ring == first.ring, second.arena == first.arena)
	}
	run("other queue capacity", Config{QueueCap: 2, SigKind: signature.Exact, CheckerShards: 1})
	if b := look(); b.ring == second.ring || b.arena != second.arena {
		t.Errorf("QueueCap 64 → 2: rings kept %v, arenas kept %v; want rings rebuilt, arenas kept",
			b.ring == second.ring, b.arena == second.arena)
	}
	run("defaults", Config{})

	if c, _, _ := engine.Counters(); c != created+1 {
		t.Errorf("%d runtimes built for five runs and four look-ins, want 1", c-created)
	}
}

// TestPooledRuntimePinsNoWorkload: once Run has returned and the caller has
// dropped the workload, the runtime parked in the pool does not keep it (or
// the recorder-free config) reachable.
func TestPooledRuntimePinsNoWorkload(t *testing.T) {
	engine.CloseIdle()
	defer engine.CloseIdle()
	collected := make(chan struct{})
	func() {
		w := newDeltaArray(8, 8, 256)
		runtime.SetFinalizer(w, func(*deltaArrayWorkload) { close(collected) })
		Run(w, Config{Workers: 2, CheckpointEvery: 4})
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
