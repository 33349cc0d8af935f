package domore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crossinv/internal/runtime/sched"
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
	stats := Run(w, Options{Workers: 4})
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
	stats := Run(w, Options{Workers: 3})
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

// localWorkload exercises LOCALWRITE scheduling: iterations touch several
// addresses and each owner applies only its own updates.
type localWorkload struct {
	irregular
	space   int
	workers int
}

func (w *localWorkload) Execute(inv, it, tid int) {
	part := sched.NewLocalWrite(uint64(w.space))
	tag := w.tagOf(inv, it)
	for _, a := range w.idx[inv][it] {
		if part.Owner(a, w.workers) == tid {
			w.data[a] = w.data[a]*3 + tag
		}
	}
}

func TestRunLocalWritePolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := newIrregular(rng, 10, 30, 40, 3)
	w := &localWorkload{irregular: *base, space: 40, workers: 4}
	want := w.sequentialRun()
	stats := Run(w, Options{Workers: 4, Policy: sched.NewLocalWrite(40)})
	for a := range want {
		if w.data[a] != want[a] {
			t.Fatalf("data[%d] = %d, want %d", a, w.data[a], want[a])
		}
	}
	if stats.Dispatches < stats.Iterations {
		t.Fatalf("Dispatches (%d) < Iterations (%d); multi-owner iterations should fan out", stats.Dispatches, stats.Iterations)
	}
}

// TestDuplicatedSchedulerMatchesSequential checks the §3.4 configuration:
// RunSharded with ConcurrentAddr and one scheduler lane per worker is the
// duplicated scheduler — every lane replays address computation and
// assignment on a policy of its own. The LOCALWRITE row touches one address
// per iteration, so it too executes every iteration exactly once.
func TestDuplicatedSchedulerMatchesSequential(t *testing.T) {
	const invs, iters, nw, space = 15, 40, 4, 48
	rr := newIrregular(rand.New(rand.NewSource(99)), invs, iters, space, 2)
	lw := &localWorkload{irregular: *newIrregular(rand.New(rand.NewSource(99)), invs, iters, space, 1), space: space, workers: nw}
	for _, c := range []struct {
		name      string
		w         Workload
		data      *irregular
		newPolicy func() sched.Policy
	}{
		{"round-robin", rr, rr, nil},
		{"localwrite", lw, &lw.irregular, func() sched.Policy { return sched.NewLocalWrite(space) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := c.data.sequentialRun()
			stats := RunSharded(c.w, Options{Workers: nw, Lanes: nw, ConcurrentAddr: true, NewPolicy: c.newPolicy})
			for a := range want {
				if c.data.data[a] != want[a] {
					t.Fatalf("data[%d] = %d, want %d", a, c.data.data[a], want[a])
				}
			}
			if stats.Iterations != invs*iters || stats.Dispatches != invs*iters {
				t.Fatalf("Iterations = %d, Dispatches = %d; want %d each", stats.Iterations, stats.Dispatches, invs*iters)
			}
		})
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

// Property: for arbitrary irregular access patterns and worker counts, Run
// and the duplicated-scheduler configuration of RunSharded produce exactly
// the sequential result.
func TestQuickEquivalence(t *testing.T) {
	prop := func(seed int64, workers uint8, dup bool) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := int(workers%4) + 1
		w := newIrregular(rng, 8, 25, 24, 2)
		want := w.sequentialRun()
		if dup {
			RunSharded(w, Options{Workers: nw, ConcurrentAddr: true, Lanes: nw})
		} else {
			Run(w, Options{Workers: nw})
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
		Run(w, Options{Workers: 4})
	}
}
