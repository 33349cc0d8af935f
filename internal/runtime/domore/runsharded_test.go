package domore

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/trace"
)

// The tests in this file pin RunSharded, which the repository benchmark
// calls by name, as what it is: Run. Their names are those of the sharded
// scheduler's tests, whose configurations they still run. Those that pin
// what the scheduler does run the parallel execution (runOn) with
// Options.Lanes set, and find that Lanes changes nothing, Stats.Batches
// counts Run's run records, and LaneWaits reads 0; TestRunShardedMatchesSequential,
// TestRunShardedQuick and TestRunShardedSteadyStateAllocs call RunSharded
// itself, which is guarded like Run.

// dataOf returns the cells a test workload writes.
func dataOf(w Workload) []int64 {
	if rr, ok := w.(roundRobin); ok {
		w = rr.Workload
	}
	return w.(*irregular).data
}

// sameAsRun runs one instance from mk in parallel with Options.Lanes unset
// and another with the lanes opts asks for — one after the other, or at
// once from two goroutines, each on a runtime of its own from the pool —
// and requires the same data and the same Stats, Stalls aside.
func sameAsRun(t *testing.T, mk func() Workload, opts func() Options, concurrent bool) Stats {
	t.Helper()
	ref, w := mk(), mk()
	var want, got Stats
	if concurrent {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); want = RunParallel(ref, noLanes(opts())) }()
		go func() { defer wg.Done(); got = RunParallel(w, opts()) }()
		wg.Wait()
	} else {
		want = RunParallel(ref, noLanes(opts()))
		got = RunParallel(w, opts())
	}
	for a, v := range dataOf(ref) {
		if dataOf(w)[a] != v {
			t.Fatalf("data[%d] = %d, Run produced %d", a, dataOf(w)[a], v)
		}
	}
	got.Stalls, want.Stalls = 0, 0
	if got != want {
		t.Errorf("stats %+v with lanes, %+v without", got, want)
	}
	if got.Batches != want.Batches || got.LaneWaits != 0 {
		t.Errorf("Batches = %d, LaneWaits = %d; want Run's %d and 0", got.Batches, got.LaneWaits, want.Batches)
	}
	return got
}

// noLanes returns o with Options.Lanes unset.
func noLanes(o Options) Options {
	o.Lanes = 0
	return o
}

func TestRunShardedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := newIrregular(rng, 20, 50, 64, 2)
	want := w.sequentialRun()
	stats := RunParallel(w, Options{Workers: 4, Lanes: 4})
	checkIrregular(t, "RunSharded", w, want)
	ref := RunParallel(newIrregular(rand.New(rand.NewSource(42)), 20, 50, 64, 2), Options{Workers: 4})
	if stats.Iterations != 20*50 {
		t.Fatalf("Iterations = %d, want %d", stats.Iterations, 20*50)
	}
	if stats.Dependences == 0 {
		t.Fatal("expected dependences on a 64-cell space with 1000 iterations")
	}
	if stats.Batches != ref.Batches || stats.LaneWaits != 0 {
		t.Fatalf("Batches = %d, LaneWaits = %d; want Run's %d and 0", stats.Batches, stats.LaneWaits, ref.Batches)
	}

	// RunSharded itself is the guarded Run.
	w = newIrregular(rand.New(rand.NewSource(42)), 20, 50, 64, 2)
	guarded := RunSharded(w, Options{Workers: 4, Lanes: 4})
	checkIrregular(t, "RunSharded", w, want)
	if guarded.Iterations != 20*50 || guarded.Inline+guarded.Dispatches != guarded.Iterations {
		t.Fatalf("RunSharded: %d iterations, %d inline + %d dispatched; want %d in all", guarded.Iterations, guarded.Inline, guarded.Dispatches, 20*50)
	}
}

// TestRunShardedScheduleEquivalence: at every lane count the sharded
// scheduler was pinned under, RunSharded produces Run's schedule. The
// concurrent rows run the two at once, on two pooled runtimes.
func TestRunShardedScheduleEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name       string
		lanes      int
		concurrent bool
	}{
		{"serial-4x256", 4, false},
		{"serial-3x7", 3, false},
		{"serial-1x1", 1, false},
		{"concurrent-4x64", 4, true},
		{"concurrent-2x13", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() Workload { return newIrregular(rand.New(rand.NewSource(1234)), 16, 45, 48, 3) }
			sameAsRun(t, mk, func() Options { return Options{Workers: 4, Lanes: tc.lanes} }, tc.concurrent)
		})
	}
}

// TestRunShardedTinyQueues drives the producer through constant
// backpressure: rings of two messages on a conflict-dense workload, where
// every dispatch waits for room and every condition for its source.
func TestRunShardedTinyQueues(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	w := newIrregular(rng, 12, 64, 16, 2) // 16-cell space: dependences everywhere
	want := w.sequentialRun()
	stats := RunParallel(w, Options{Workers: 3, Lanes: 2, QueueCap: 2})
	checkIrregular(t, "tiny queues", w, want)
	if stats.SyncConditions == 0 {
		t.Fatal("tiny address space produced no cross-thread dependences; test lost its point")
	}
}

// newIrregularLens is newIrregular with a trip count per invocation.
func newIrregularLens(rng *rand.Rand, lens []int, space, addrsPerIter int) *irregular {
	w := &irregular{data: make([]int64, space)}
	for _, n := range lens {
		one := newIrregular(rng, 1, n, space, addrsPerIter)
		w.idx = append(w.idx, one.idx[0])
	}
	for i := range w.idx {
		for range w.idx[i] {
			w.seqs = append(w.seqs, int64(len(w.seqs)+1))
		}
	}
	return w
}

// TestRunShardedChunkBoundaries runs the invocation lengths that straddled
// the sharded scheduler's chunk size of 8 — one short, exact, one over, two
// chunks and a tail, and a mix with an empty invocation — for one to three
// lanes, under the round-robin seam: the lanes change nothing.
func TestRunShardedChunkBoundaries(t *testing.T) {
	const batch, space, workers = 8, 40, 4
	rep := func(n, times int) []int {
		out := make([]int, times)
		for i := range out {
			out[i] = n
		}
		return out
	}
	shapes := []struct {
		name string
		lens []int
	}{
		{"batch-1", rep(batch-1, 12)},
		{"batch", rep(batch, 12)},
		{"batch+1", rep(batch+1, 12)},
		{"2batch+3", rep(2*batch+3, 8)},
		{"mix", []int{3, batch, 1, 2*batch + 3, batch - 1, 0, batch + 1, 3 * batch, 5, batch}},
	}
	for _, shape := range shapes {
		t.Run(shape.name+"/round-robin", func(t *testing.T) {
			mk := func() Workload {
				return roundRobin{newIrregularLens(rand.New(rand.NewSource(31)), shape.lens, space, 3)}
			}
			for lanes := 1; lanes <= 3; lanes++ {
				sameAsRun(t, mk, func() Options { return Options{Workers: workers, Lanes: lanes} }, false)
			}
		})
	}
}

// TestRunShardedShortInvocationsStartNoLanes: a parallel run with lanes
// asked for starts no thread beyond the workers, whatever the invocation
// lengths and lane count.
func TestRunShardedShortInvocationsStartNoLanes(t *testing.T) {
	const workers, lanes = 3, 2
	engine.CloseIdle()
	defer engine.CloseIdle()
	for _, lens := range [][]int{{15, 1, 7, 15, 0, 12}, {5, 16, 5, 300}} {
		w := newIrregularLens(rand.New(rand.NewSource(8)), lens, 24, 2)
		want := w.sequentialRun()
		st := RunParallel(w, Options{Workers: workers, Lanes: lanes})
		checkIrregular(t, "RunSharded", w, want)
		if st.SyncConditions == 0 {
			t.Fatal("no condition forwarded; the workers never waited on each other")
		}
		rt := engine.Acquire(workers)
		if rt.Threads() != workers {
			t.Errorf("invocations %v: the runtime RunSharded used has %d threads, want the %d workers only", lens, rt.Threads(), workers)
		}
		rt.Release()
	}
}

// TestRunShardedTraceParity asserts the trace-derived counters equal the
// engine's Stats — the contract the workloadtest suite enforces for Run —
// and that every event comes from the scheduler or a worker.
func TestRunShardedTraceParity(t *testing.T) {
	const invs, iters, workers = 10, 37, 4
	rng := rand.New(rand.NewSource(9))
	w := newIrregular(rng, invs, iters, 32, 2)
	rec := trace.NewRecorder()
	stats := RunParallel(w, Options{Workers: workers, Lanes: 3, Trace: rec})
	sum := rec.Summary()
	for _, c := range []struct {
		what             string
		fromTrace, stats int64
	}{
		{"schedules", sum.Counts[trace.KindSchedule], stats.Iterations},
		{"dispatches", sum.Counts[trace.KindDispatch], stats.Dispatches},
		{"sync conditions", sum.Counts[trace.KindSyncCond], stats.SyncConditions},
		{"addr checks", sum.Sums[trace.KindAddrCheck], stats.AddrChecks},
		{"stalls", sum.Counts[trace.KindStallBegin], stats.Stalls},
	} {
		if c.fromTrace != c.stats {
			t.Errorf("trace %s %d != Stats %d", c.what, c.fromTrace, c.stats)
		}
	}
	for _, ev := range rec.Events() {
		if ev.Lane < trace.LaneScheduler || ev.Lane >= workers {
			t.Fatalf("%v event on lane %s", ev.Kind, trace.LaneName(ev.Lane))
		}
	}
}

// Property: arbitrary access patterns and worker and lane counts — the
// forwarder always reproduces the sequential result.
func TestRunShardedQuick(t *testing.T) {
	prop := func(seed int64, workers, lanes uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newIrregular(rng, 8, 25, 24, 2)
		want := w.sequentialRun()
		RunSharded(w, Options{Workers: int(workers%4) + 1, Lanes: int(lanes % 5)})
		for a := range want {
			if w.data[a] != want[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRunShardedSteadyStateAllocs proves the zero-allocation steady state:
// growing the run by 1000 iterations must not grow its allocation count by
// more than rounding noise, because the scheduler's scratch (address
// buffer, per-worker condition lists) is reused. Fixed per-run costs cancel
// in the difference. AllocsPerRun pins GOMAXPROCS to 1, which doubles as a
// single-CPU liveness check.
func TestRunShardedSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	mkRun := func(invs int) func() {
		rng := rand.New(rand.NewSource(3))
		w := newIrregular(rng, invs, 50, 64, 2)
		return func() {
			RunSharded(w, Options{Workers: 2, Lanes: 2})
		}
	}
	small := testing.AllocsPerRun(5, mkRun(4)) // 200 iterations
	big := testing.AllocsPerRun(5, mkRun(24))  // 1200 iterations
	marginal := (big - small) / float64(1000)
	if marginal > 0.05 {
		t.Errorf("marginal allocations = %.4f/iteration (small run %.0f, big run %.0f); steady state should reuse every buffer",
			marginal, small, big)
	}
}
