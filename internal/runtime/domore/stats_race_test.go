package domore

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestStatsCountersRace is the regression for the Stats concurrency
// contract (see the Stats doc comment): it drives the scheduler — through
// RunOn, with Options.Lanes set, and as two runs at once on two pooled
// runtimes —
// over a conflict-dense workload with enough workers that the worker-side
// counting — thread-private Stalls folded at quiesce — runs concurrently
// with the scheduler's plain increments. Under `go test -race` any field
// written by a running thread — or read before quiesce — is reported; in a
// plain run it still pins the counter totals.
func TestStatsCountersRace(t *testing.T) {
	const invs, iters = 40, 64
	engines := []struct {
		name string
		run  func(Workload, Options) Stats
	}{
		{"dedicated", RunParallel},
		{"sharded", func(w Workload, o Options) Stats { o.Lanes = 3; return RunParallel(w, o) }},
		{"duplicated", func(w Workload, o Options) Stats {
			other := newIrregular(rand.New(rand.NewSource(7)), invs, iters, 32, 2)
			done := make(chan Stats)
			go func() { done <- RunParallel(other, o) }()
			st := RunParallel(w, o)
			if ost := <-done; ost.Iterations != st.Iterations || !reflect.DeepEqual(other.data, dataOf(w)) {
				t.Errorf("the concurrent twin run: %d iterations, data equal %v", ost.Iterations, reflect.DeepEqual(other.data, dataOf(w)))
			}
			return st
		}},
	}
	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			w := newIrregular(rng, invs, iters, 32, 2)
			want := w.sequentialRun()

			stats := eng.run(w, Options{Workers: 4})
			if !reflect.DeepEqual(w.data, want) {
				t.Fatal("parallel result diverged from sequential")
			}
			if stats.Iterations != invs*iters {
				t.Fatalf("Iterations = %d, want %d", stats.Iterations, invs*iters)
			}
			if stats.Dispatches != stats.Iterations {
				t.Fatalf("Dispatches = %d != Iterations %d; each iteration goes to one worker",
					stats.Dispatches, stats.Iterations)
			}
			// 32 cells shared by 2560 two-address iterations: cross-worker
			// dependences must have manifested.
			if stats.SyncConditions == 0 {
				t.Fatal("no synchronization conditions on a conflict-dense workload")
			}
			if stats.AddrChecks == 0 {
				t.Fatal("no shadow lookups recorded")
			}
		})
	}
}
