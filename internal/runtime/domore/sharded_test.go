package domore

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/sched"
	"crossinv/internal/runtime/trace"
)

func TestRunShardedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := newIrregular(rng, 20, 50, 64, 2)
	want := w.sequentialRun()
	stats := RunSharded(w, Options{Workers: 4})
	for a := range want {
		if w.data[a] != want[a] {
			t.Fatalf("data[%d] = %d, want %d", a, w.data[a], want[a])
		}
	}
	if stats.Iterations != 20*50 {
		t.Fatalf("Iterations = %d, want %d", stats.Iterations, 20*50)
	}
	if stats.SyncConditions == 0 {
		t.Fatal("expected cross-thread dependences on a 64-cell space with 1000 iterations")
	}
	if stats.Batches == 0 {
		t.Fatal("Batches = 0; the sharded driver publishes through batched flushes")
	}
}

// TestRunShardedScheduleEquivalence is the core sharding claim: for the
// same workload, RunSharded produces exactly Run's schedule — every
// deterministic Stats field agrees, in both address-sourcing modes and
// across lane counts and chunk sizes that do and don't divide the
// invocation length. Stalls/LaneWaits/Batches are timing- or mode-specific
// and deliberately excluded.
func TestRunShardedScheduleEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name       string
		lanes      int
		batch      int
		concurrent bool
	}{
		{"serial-4x256", 4, 256, false},
		{"serial-3x7", 3, 7, false},
		{"serial-1x1", 1, 1, false},
		{"concurrent-4x64", 4, 64, true},
		{"concurrent-2x13", 2, 13, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *irregular {
				return newIrregular(rand.New(rand.NewSource(1234)), 16, 45, 48, 3)
			}
			ref := mk()
			want := Run(ref, Options{Workers: 4})

			w := mk()
			got := RunSharded(w, Options{
				Workers: 4, Lanes: tc.lanes, Batch: tc.batch, ConcurrentAddr: tc.concurrent,
			})
			for a := range ref.data {
				if w.data[a] != ref.data[a] {
					t.Fatalf("data[%d] = %d, Run produced %d", a, w.data[a], ref.data[a])
				}
			}
			if got.Iterations != want.Iterations {
				t.Errorf("Iterations = %d, Run = %d", got.Iterations, want.Iterations)
			}
			if got.Dispatches != want.Dispatches {
				t.Errorf("Dispatches = %d, Run = %d", got.Dispatches, want.Dispatches)
			}
			if got.SyncConditions != want.SyncConditions {
				t.Errorf("SyncConditions = %d, Run = %d", got.SyncConditions, want.SyncConditions)
			}
			if got.AddrChecks != want.AddrChecks {
				t.Errorf("AddrChecks = %d, Run = %d", got.AddrChecks, want.AddrChecks)
			}
		})
	}
}

// TestRunShardedLocalWrite covers multi-owner scheduling: the serial mode
// shares the driver's LocalWrite (lanes only call its pure Owner), the
// concurrent mode replays assignments on per-lane instances via NewPolicy.
func TestRunShardedLocalWrite(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := "serial"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			mk := func() *localWorkload {
				rng := rand.New(rand.NewSource(5))
				return &localWorkload{irregular: *newIrregular(rng, 10, 30, 40, 3), space: 40, workers: 4}
			}
			ref := mk()
			want := Run(ref, Options{Workers: 4, Policy: sched.NewLocalWrite(40)})

			w := mk()
			got := RunSharded(w, Options{
				Workers:        4,
				Lanes:          3,
				Batch:          11,
				Policy:         sched.NewLocalWrite(40),
				NewPolicy:      func() sched.Policy { return sched.NewLocalWrite(40) },
				ConcurrentAddr: concurrent,
			})
			for a := range ref.data {
				if w.data[a] != ref.data[a] {
					t.Fatalf("data[%d] = %d, Run produced %d", a, w.data[a], ref.data[a])
				}
			}
			if got.Dispatches != want.Dispatches || got.SyncConditions != want.SyncConditions ||
				got.Iterations != want.Iterations || got.AddrChecks != want.AddrChecks {
				t.Errorf("sharded stats %+v disagree with Run %+v", got, want)
			}
			if got.Dispatches < got.Iterations {
				t.Errorf("Dispatches (%d) < Iterations (%d); multi-owner iterations should fan out", got.Dispatches, got.Iterations)
			}
		})
	}
}

// TestRunShardedTinyQueues drives the batched publication path through
// constant backpressure: chunks far larger than the rings force every
// flush to split and spin. This is the regression test for the
// iteration-order publication invariant — a driver that buffers a
// dispatch past a condition referencing it deadlocks here (worker stalled
// on an unpublished dispatch while the driver spins on its full ring).
func TestRunShardedTinyQueues(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	w := newIrregular(rng, 12, 64, 16, 2) // 16-cell space: dependences everywhere
	want := w.sequentialRun()
	stats := RunSharded(w, Options{Workers: 3, Lanes: 2, Batch: 64, QueueCap: 2})
	for a := range want {
		if w.data[a] != want[a] {
			t.Fatalf("data[%d] = %d, want %d", a, w.data[a], want[a])
		}
	}
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

// TestRunShardedChunkBoundaries pins the schedule across the line between
// the two detection paths: invocations one short of a chunk (detected on
// the driver), exactly a chunk (handed to the lanes), one over and two
// chunks and a tail (both, alternating within an invocation), and a mix —
// for one to three lanes, single-owner and LOCALWRITE multi-owner. Every
// deterministic Stats field equals Run's; Batches, which only the chunking
// decides, does not depend on the lane count.
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
		for _, multi := range []bool{false, true} {
			name := shape.name + "/round-robin"
			if multi {
				name = shape.name + "/localwrite"
			}
			t.Run(name, func(t *testing.T) {
				mk := func() Workload {
					w := newIrregularLens(rand.New(rand.NewSource(31)), shape.lens, space, 3)
					if multi {
						return &localWorkload{irregular: *w, space: space, workers: workers}
					}
					return w
				}
				data := func(w Workload) []int64 {
					if lw, ok := w.(*localWorkload); ok {
						return lw.data
					}
					return w.(*irregular).data
				}
				opts := func() Options {
					o := Options{Workers: workers, Batch: batch}
					if multi {
						o.Policy = sched.NewLocalWrite(space)
					}
					return o
				}
				ref := mk()
				want := Run(ref, opts())
				var batches int64
				for lanes := 1; lanes <= 3; lanes++ {
					w := mk()
					o := opts()
					o.Lanes = lanes
					got := RunSharded(w, o)
					for a, v := range data(ref) {
						if data(w)[a] != v {
							t.Fatalf("lanes %d: data[%d] = %d, Run produced %d", lanes, a, data(w)[a], v)
						}
					}
					if got.Iterations != want.Iterations || got.Dispatches != want.Dispatches ||
						got.SyncConditions != want.SyncConditions || got.AddrChecks != want.AddrChecks {
						t.Errorf("lanes %d: sharded stats %+v disagree with Run %+v", lanes, got, want)
					}
					if lanes == 1 {
						batches = got.Batches
					} else if got.Batches != batches {
						t.Errorf("lanes %d: Batches = %d, %d with one lane", lanes, got.Batches, batches)
					}
				}
				if multi && want.Dispatches <= want.Iterations && want.Iterations > 0 {
					t.Errorf("Dispatches %d <= Iterations %d: the multi-owner case lost its point", want.Dispatches, want.Iterations)
				}
			})
		}
	}
}

// TestRunShardedShortInvocationsStartNoLanes: a run that never fills a
// chunk is detected entirely on the driver, so it starts no lane thread and
// no lane ever waits; the first full chunk on the same runtime starts them.
func TestRunShardedShortInvocationsStartNoLanes(t *testing.T) {
	const workers, lanes, batch = 3, 2, 16
	rt := engine.New(workers)
	defer rt.Close()
	short := newIrregularLens(rand.New(rand.NewSource(8)), []int{batch - 1, 1, 7, batch - 1, 0, 12}, 24, 2)
	want := short.sequentialRun()
	st := RunShardedOn(rt, short, Options{Workers: workers, Lanes: lanes, Batch: batch})
	for a := range want {
		if short.data[a] != want[a] {
			t.Fatalf("data[%d] = %d, want %d", a, short.data[a], want[a])
		}
	}
	if st.SyncConditions == 0 {
		t.Fatal("no dependence manifested; the driver-side path was not exercised")
	}
	if rt.Threads() != workers {
		t.Errorf("runtime started %d threads for a run without a full chunk, want the %d workers only", rt.Threads(), workers)
	}
	if st.LaneWaits != 0 {
		t.Errorf("LaneWaits = %d with no lane running", st.LaneWaits)
	}
	full := newIrregularLens(rand.New(rand.NewSource(9)), []int{5, batch, 5}, 24, 2)
	want = full.sequentialRun()
	RunShardedOn(rt, full, Options{Workers: workers, Lanes: lanes, Batch: batch})
	for a := range want {
		if full.data[a] != want[a] {
			t.Fatalf("after a full chunk: data[%d] = %d, want %d", a, full.data[a], want[a])
		}
	}
	if rt.Threads() != workers+lanes {
		t.Errorf("runtime has %d threads after a full chunk, want %d workers + %d lanes", rt.Threads(), workers, lanes)
	}
}

// TestRunShardedTraceParity asserts the trace-derived counters equal the
// engine's Stats — the same contract the workloadtest suite enforces for
// Run — plus the sharded-only invariants: KindShardChunk is emitted exactly
// once per chunk per shard, by whoever detected that chunk (a scheduler
// lane on its own trace lane for a full chunk, the driver on the scheduler
// lane for a partial one), and Batches is deterministic across runs.
func TestRunShardedTraceParity(t *testing.T) {
	const invs, iters, lanes, batch = 10, 37, 3, 10
	type chunkKey struct{ shard, seq int64 }
	run := func() (Stats, *trace.Summary, map[chunkKey][]int32) {
		rng := rand.New(rand.NewSource(9))
		w := newIrregular(rng, invs, iters, 32, 2)
		rec := trace.NewRecorder()
		var mu sync.Mutex
		emitted := map[chunkKey][]int32{}
		rec.SetHook(func(lane int32, k trace.Kind, a, b, _ int64) {
			if k == trace.KindShardChunk {
				mu.Lock()
				emitted[chunkKey{a, b}] = append(emitted[chunkKey{a, b}], lane)
				mu.Unlock()
			}
		})
		stats := RunSharded(w, Options{Workers: 4, Lanes: lanes, Batch: batch, Trace: rec})
		sum := rec.Summary()
		return stats, &sum, emitted
	}
	stats, sum, emitted := run()
	if sum.Counts[trace.KindSchedule] != stats.Iterations {
		t.Errorf("trace schedules %d != Iterations %d", sum.Counts[trace.KindSchedule], stats.Iterations)
	}
	if sum.Counts[trace.KindDispatch] != stats.Dispatches {
		t.Errorf("trace dispatches %d != Dispatches %d", sum.Counts[trace.KindDispatch], stats.Dispatches)
	}
	if sum.Counts[trace.KindSyncCond] != stats.SyncConditions {
		t.Errorf("trace sync conds %d != SyncConditions %d", sum.Counts[trace.KindSyncCond], stats.SyncConditions)
	}
	if sum.Sums[trace.KindAddrCheck] != stats.AddrChecks {
		t.Errorf("trace addr checks %d != AddrChecks %d", sum.Sums[trace.KindAddrCheck], stats.AddrChecks)
	}
	if sum.Counts[trace.KindStallBegin] != stats.Stalls {
		t.Errorf("trace stalls %d != Stalls %d", sum.Counts[trace.KindStallBegin], stats.Stalls)
	}
	// 37 iterations in chunks of 10: three full chunks, then a tail of 7.
	const perInv = (iters + batch - 1) / batch
	if got := sum.Counts[trace.KindShardChunk]; got != invs*perInv*lanes {
		t.Errorf("trace shard chunks = %d, want %d chunks × %d shards", got, invs*perInv, lanes)
	}
	for seq := int64(1); seq <= invs*perInv; seq++ {
		for shard := int64(0); shard < lanes; shard++ {
			want, who := int32(trace.LaneShardBase)-int32(shard), "its scheduler lane"
			if seq%perInv == 0 {
				want, who = trace.LaneScheduler, "the driver"
			}
			if got := emitted[chunkKey{shard, seq}]; len(got) != 1 || got[0] != want {
				t.Errorf("chunk %d shard %d: emitted on trace lanes %v, want once on %d (%s)", seq, shard, got, want, who)
			}
		}
	}
	stats2, _, _ := run()
	if stats2.Batches != stats.Batches {
		t.Errorf("Batches not deterministic: %d then %d", stats.Batches, stats2.Batches)
	}
}

// Property: arbitrary access patterns, worker/lane/batch splits, both
// address modes — the sharded engine always reproduces the sequential
// result.
func TestRunShardedQuick(t *testing.T) {
	prop := func(seed int64, workers, lanes, batch uint8, concurrent bool) bool {
		rng := rand.New(rand.NewSource(seed))
		w := newIrregular(rng, 8, 25, 24, 2)
		want := w.sequentialRun()
		RunSharded(w, Options{
			Workers:        int(workers%4) + 1,
			Lanes:          int(lanes%5) + 1,
			Batch:          int(batch%40) + 1,
			ConcurrentAddr: concurrent,
		})
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
// more than rounding noise, because every chunk structure (cond lists,
// address arenas, assignment arrays, batch buffers) is reused. Fixed
// per-run costs (goroutines, queues, shadow headroom) cancel in the
// difference. AllocsPerRun pins GOMAXPROCS to 1, which doubles as a
// single-CPU liveness check for the lane handoff and batch consume spins.
func TestRunShardedSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	mkRun := func(invs int) func() {
		rng := rand.New(rand.NewSource(3))
		w := newIrregular(rng, invs, 50, 64, 2)
		return func() {
			RunSharded(w, Options{Workers: 2, Lanes: 2, Batch: 32})
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
