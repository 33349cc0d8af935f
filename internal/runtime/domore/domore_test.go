package domore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crossinv/internal/runtime/trace"
)

// irregular is a synthetic CG-shaped workload: an outer loop of invocations,
// each an inner loop whose iteration it updates data[idx[inv][it]] with a
// non-commutative function. The final value of every cell therefore depends
// on the exact order of the updates that touched it, which is precisely what
// DOMORE's runtime synchronization must preserve across invocations.
type irregular struct {
	idx  [][][]uint64 // idx[inv][it] = addresses accessed by that iteration
	data []int64
	seqs []int64 // sequence tags, one per combined iteration
}

func newIrregular(rng *rand.Rand, invocations, itersPerInv, space, addrsPerIter int) *irregular {
	w := &irregular{data: make([]int64, space)}
	tag := int64(1)
	for inv := 0; inv < invocations; inv++ {
		iters := make([][]uint64, itersPerInv)
		for it := range iters {
			as := make([]uint64, addrsPerIter)
			for k := range as {
				as[k] = uint64(rng.Intn(space))
			}
			iters[it] = as
			w.seqs = append(w.seqs, tag)
			tag++
		}
		w.idx = append(w.idx, iters)
	}
	return w
}

func (w *irregular) Invocations() int       { return len(w.idx) }
func (w *irregular) Iterations(inv int) int { return len(w.idx[inv]) }
func (w *irregular) Sequential(inv int)     {}
func (w *irregular) ComputeAddr(inv, it int, buf []uint64) []uint64 {
	return append(buf, w.idx[inv][it]...)
}

func (w *irregular) tagOf(inv, it int) int64 {
	n := 0
	for i := 0; i < inv; i++ {
		n += len(w.idx[i])
	}
	return w.seqs[n+it]
}

func (w *irregular) Execute(inv, it, tid int) {
	tag := w.tagOf(inv, it)
	for _, a := range w.idx[inv][it] {
		w.data[a] = w.data[a]*3 + tag // non-commutative: order-sensitive
	}
}

// sequentialRun computes the golden result.
func (w *irregular) sequentialRun() []int64 {
	data := make([]int64, len(w.data))
	for inv := range w.idx {
		for it := range w.idx[inv] {
			tag := w.tagOf(inv, it)
			for _, a := range w.idx[inv][it] {
				data[a] = data[a]*3 + tag
			}
		}
	}
	return data
}

func TestRunMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := newIrregular(rng, 20, 50, 64, 2)
	want := w.sequentialRun()
	stats := RunParallel(w, Options{Workers: 4})
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
}

func TestRunNoConflictsNoConditions(t *testing.T) {
	// Every iteration touches a distinct address → no dependences at all,
	// so the engine must forward zero synchronization conditions (the
	// fully-parallel case of Fig 3.5 before the conflict).
	w := &irregular{data: make([]int64, 1000)}
	for inv := 0; inv < 5; inv++ {
		iters := make([][]uint64, 10)
		for it := range iters {
			iters[it] = []uint64{uint64(inv*10 + it)}
		}
		w.idx = append(w.idx, iters)
		for range iters {
			w.seqs = append(w.seqs, int64(len(w.seqs)+1))
		}
	}
	want := w.sequentialRun()
	stats := RunParallel(w, Options{Workers: 3})
	if stats.SyncConditions != 0 {
		t.Fatalf("SyncConditions = %d, want 0 for disjoint accesses", stats.SyncConditions)
	}
	if stats.Stalls != 0 {
		t.Fatalf("Stalls = %d, want 0", stats.Stalls)
	}
	for a := range want {
		if w.data[a] != want[a] {
			t.Fatalf("data[%d] = %d, want %d", a, w.data[a], want[a])
		}
	}
}

func TestRunSingleWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newIrregular(rng, 5, 20, 16, 1)
	want := w.sequentialRun()
	Run(w, Options{Workers: 1})
	for a := range want {
		if w.data[a] != want[a] {
			t.Fatalf("data[%d] = %d, want %d", a, w.data[a], want[a])
		}
	}
}

// roundRobin marks a workload for the scheduler's round-robin test seam
// (roundRobiner).
type roundRobin struct{ Workload }

func (roundRobin) RoundRobin() bool { return true }

// schedule is the list of scheduler records a run emits: every forwarded
// condition and dispatch, in order.
func schedule(t *testing.T, w Workload, opts Options) []trace.Event {
	t.Helper()
	rec := trace.NewRecorder()
	opts.Trace = rec
	RunParallel(w, opts)
	var out []trace.Event
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindSyncCond || ev.Kind == trace.KindDispatch {
			out = append(out, ev)
		}
	}
	return out
}

// TestDuplicatedSchedulerMatchesSequential pins what the duplicated
// scheduler of §3.4 needs from the scheduler it replicates: every worker
// recomputes the schedule and runs only its own share, which is sound only
// when the schedule is a function of the workload alone. Two runs of one
// workload forward the same conditions and dispatch the same iterations to
// the same workers, in the same order, and match the sequential result —
// under the assignment and under the round-robin seam.
func TestDuplicatedSchedulerMatchesSequential(t *testing.T) {
	const invs, iters, nw, space = 15, 40, 4, 48
	for _, c := range []struct {
		name string
		rr   bool
	}{
		{"follow", false},
		{"round-robin", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			mk := func() (Workload, *irregular) {
				w := newIrregular(rand.New(rand.NewSource(99)), invs, iters, space, 2)
				if c.rr {
					return roundRobin{w}, w
				}
				return w, w
			}
			w, _ := mk()
			first := schedule(t, w, Options{Workers: nw})
			w, data := mk()
			want := data.sequentialRun()
			again := schedule(t, w, Options{Workers: nw})
			checkIrregular(t, c.name, data, want)
			if len(first) != len(again) {
				t.Fatalf("%d scheduler records, then %d", len(first), len(again))
			}
			dispatches := 0
			for i := range first {
				a, b := first[i], again[i]
				if a.Kind != b.Kind || a.A != b.A || a.B != b.B || a.C != b.C {
					t.Fatalf("record %d: %v then %v", i, a, b)
				}
				if a.Kind == trace.KindDispatch {
					dispatches++
				}
			}
			if dispatches != invs*iters {
				t.Fatalf("%d dispatches, want %d", dispatches, invs*iters)
			}
		})
	}
}

// TestFollowKeepsChainsOnOneWorker: an iteration goes to the worker its
// newest dependence ran on — the dependence discharged by that worker's
// program order, no condition forwarded — unless that worker took the last
// followCap iterations; then, and without a dependence, iteration it of an
// n-iteration invocation goes to its block, worker ⌊it·W/n⌋, and only a
// dependence left on another worker costs a condition. The first two
// invocations touch one cell per iteration, split the same way, so each
// worker's block depends on its own block only; the third is a chain over
// one cell, which follows and hands over as the rule says. Blocks of two,
// shorter than followCap, leave the chain room to follow.
func TestFollowKeepsChainsOnOneWorker(t *testing.T) {
	const nw, n = 3, 6
	w := &irregular{data: make([]int64, n)}
	for inv := 0; inv < 3; inv++ {
		iters := make([][]uint64, n)
		for i := range iters {
			iters[i] = []uint64{uint64(i)}
			if inv == 2 {
				iters[i] = []uint64{n - 1}
			}
		}
		w.idx = append(w.idx, iters)
	}
	for range 3 * n {
		w.seqs = append(w.seqs, int64(len(w.seqs)+1))
	}
	want := w.sequentialRun()
	var workers []int64
	conds := 0
	for _, ev := range schedule(t, w, Options{Workers: nw}) {
		if ev.Kind == trace.KindSyncCond {
			conds++
		} else {
			workers = append(workers, ev.A)
		}
	}
	checkIrregular(t, "follow", w, want)

	// The rule, replayed over the cells' last accessors.
	type access struct{ tid, iter int64 }
	last := map[uint64]access{}
	var prev, run int64 = -1, 0
	wantConds, moved := 0, 0
	for inv, iters := range w.idx {
		for it, cells := range iters {
			iterNum := int64(inv*n + it)
			to := int64(it * nw / n)
			if dep, ok := last[cells[0]]; ok && dep.tid != to {
				if dep.tid != prev || run < followCap {
					to = dep.tid
					moved++
				} else {
					wantConds++
				}
			}
			if to == prev {
				run++
			} else {
				prev, run = to, 1
			}
			last[cells[0]] = access{to, iterNum}
			if got := workers[iterNum]; got != to {
				t.Errorf("invocation %d iteration %d on worker %d, want %d", inv, it, got, to)
			}
		}
	}
	for i, got := range workers[:2*n] {
		if want := int64(i % n * nw / n); got != want {
			t.Errorf("independent iteration %d on worker %d, want its block's %d", i, got, want)
		}
	}
	if conds != wantConds || conds == 0 || moved == 0 {
		t.Errorf("%d conditions, want the %d hand-overs along the chain, and some; %d iterations followed off their block, want some",
			conds, wantConds, moved)
	}
}

func TestInvalidWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run with 0 workers did not panic")
		}
	}()
	Run(&irregular{}, Options{Workers: 0})
}

// Property: for arbitrary irregular access patterns and worker counts, the
// parallel execution under the assignment and under the round-robin seam,
// and the guarded Run, produce exactly the sequential result.
func TestQuickEquivalence(t *testing.T) {
	prop := func(seed int64, workers uint8, rr, guarded bool) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := int(workers%4) + 1
		w := newIrregular(rng, 8, 25, 24, 2)
		want := w.sequentialRun()
		var run Workload = w
		if rr {
			run = roundRobin{w}
		}
		opts := Options{Workers: nw}
		if guarded {
			Run(run, opts)
		} else {
			RunParallel(run, opts)
		}
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

func BenchmarkDomoreIrregular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(1))
		w := newIrregular(rng, 20, 100, 256, 2)
		b.StartTimer()
		RunParallel(w, Options{Workers: 4})
	}
}
