package speccross

import (
	"testing"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/signature"
)

// twoLoopWorkload alternates a conflict-free loop (disjoint blocks per
// epoch) with a tightly-conflicting loop, so the per-loop distances differ
// and per-epoch gating matters (the FLUIDANIMATE situation of §5.4).
type twoLoopWorkload struct {
	*gridWorkload
}

func newTwoLoop(epochs, tasks int) *twoLoopWorkload {
	g := newGrid(epochs, tasks, 1, 0)
	g.data = make([]int64, 4*tasks*epochs)
	return &twoLoopWorkload{gridWorkload: g}
}

func (w *twoLoopWorkload) base(epoch, task int) int {
	if epoch%2 == 0 {
		// Loop L1: a fresh disjoint block every invocation.
		return (epoch/2)*w.tasks + task
	}
	// Loop L2: the same block every invocation — conflicts at distance
	// 2·tasks between consecutive L2 epochs.
	return 2*w.tasks*w.epochs + task
}

func (w *twoLoopWorkload) Run(epoch, task, tid int, sig *signature.Signature) {
	a := w.base(epoch, task)
	if sig != nil {
		sig.Read(uint64(a))
		sig.Write(uint64(a))
	}
	w.data[a] = w.data[a]*3 + int64(epoch*w.tasks+task+1)
}

func (w *twoLoopWorkload) sequential() []int64 {
	data := make([]int64, len(w.data))
	for e := 0; e < w.epochs; e++ {
		for t := 0; t < w.tasks; t++ {
			a := w.base(e, t)
			data[a] = data[a]*3 + int64(e*w.tasks+t+1)
		}
	}
	return data
}

func TestProfilePerLoopDistancesDiffer(t *testing.T) {
	w := newTwoLoop(12, 6)
	pr := Profile(w, signature.Exact, 0)
	d1, ok1 := pr.PerLoop["L1"]
	d2, ok2 := pr.PerLoop["L2"]
	if ok1 && d1 <= d2 {
		t.Fatalf("L1 distance %d should exceed L2's %d (L1 is conflict-free)", d1, d2)
	}
	if !ok2 || d2 != 12 {
		t.Fatalf("L2 distance = %d (ok=%v), want 2 epochs = 12", d2, ok2)
	}
}

func TestPerEpochGatingRunsCorrectly(t *testing.T) {
	w := newTwoLoop(12, 6)
	want := w.sequential()
	pr := Profile(newTwoLoop(12, 6), signature.Exact, 0)
	stats := RunParallel(w, Config{
		Workers:         3,
		CheckpointEvery: 6,
		SigKind:         signature.Exact,
		SpecDistanceOf:  pr.PerEpoch(w),
	})
	for a := range want {
		if w.data[a] != want[a] {
			t.Fatalf("data[%d] = %d, want %d", a, w.data[a], want[a])
		}
	}
	if stats.Misspeculations != 0 {
		t.Fatalf("misspeculations = %d with per-loop gating", stats.Misspeculations)
	}
}

func TestPerEpochFallsBackWithoutLabeler(t *testing.T) {
	// A workload without EpochLabel gets the global recommendation.
	g := newGrid(6, 4, 2, 0)
	pr := Profile(unlabeled{g}, signature.Exact, 0)
	f := pr.PerEpoch(unlabeled{g})
	if f(0) != f(3) {
		t.Fatal("global fallback must be epoch-independent")
	}
}

// unlabeled hides gridWorkload's EpochLabel (a named field, not an
// embedding, so no method promotion occurs).
type unlabeled struct{ g *gridWorkload }

func (u unlabeled) Epochs() int                               { return u.g.Epochs() }
func (u unlabeled) Tasks(e int) int                           { return u.g.Tasks(e) }
func (u unlabeled) Run(e, t, tid int, s *signature.Signature) { u.g.Run(e, t, tid, s) }
func (u unlabeled) StateLen() int                             { return u.g.StateLen() }
func (u unlabeled) LoadCells(lo uint64, dst []int64)          { u.g.LoadCells(lo, dst) }
func (u unlabeled) StoreCells(lo uint64, src []int64)         { u.g.StoreCells(lo, src) }
func (u unlabeled) CellMap() func(uint64) (uint64, uint64)    { return u.g.CellMap() }

func TestShardedCheckerDetectsConflicts(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("unbounded speculation over conflicting epochs races by design (§4.2.1)")
	}
	// With multiple checker shards, the log-then-compare ordering must
	// still catch every overlapping conflicting pair: run the conflicting
	// grid repeatedly and require the sequential result every time.
	for _, shards := range []int{1, 2, 4} {
		g := newGrid(12, 8, 4, 1)
		want := g.sequential()
		RunParallel(g, Config{Workers: 4, CheckpointEvery: 3, CheckerShards: shards})
		for a := range want {
			if g.data[a] != want[a] {
				t.Fatalf("shards=%d: data[%d] = %d, want %d", shards, a, g.data[a], want[a])
			}
		}
	}
}

func TestShardedCheckerNoFalseMisspecWhenDisjoint(t *testing.T) {
	g := newGrid(10, 6, 3, 18) // fully disjoint epochs
	want := g.sequential()
	stats := RunParallel(g, Config{Workers: 3, CheckpointEvery: 5, CheckerShards: 3})
	for a := range want {
		if g.data[a] != want[a] {
			t.Fatalf("data[%d] = %d, want %d", a, g.data[a], want[a])
		}
	}
	if stats.Misspeculations != 0 {
		t.Fatalf("misspeculations = %d on disjoint epochs", stats.Misspeculations)
	}
}

func TestCheckerShardsClampedToWorkers(t *testing.T) {
	g := newGrid(4, 4, 2, 8)
	want := g.sequential()
	RunParallel(g, Config{Workers: 2, CheckpointEvery: 4, CheckerShards: 16})
	for a := range want {
		if g.data[a] != want[a] {
			t.Fatalf("data[%d] = %d, want %d", a, g.data[a], want[a])
		}
	}
}
