package speccross

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"crossinv/internal/runtime/signature"
)

// distWorkload is a region whose conflicts all lie exactly dist tasks apart
// in global task order: task g writes cell g and, when task g-dist belongs
// to an earlier epoch, first reads cell g-dist. Every cell has one writer,
// so those read-write pairs are the only conflicts, and the profile finds
// a minimum distance of dist whenever one pair exists. The update is
// order-sensitive, so a reader that overtook its writer shows in the
// result.
type distWorkload struct {
	tasks  []int   // per epoch
	first  []int   // global number of each epoch's first task
	dist   int     // the conflict distance
	data   []int64 // one cell per task
	ofTask []int   // epoch of each global task
}

func newDistWorkload(tasks []int, dist int) *distWorkload {
	w := &distWorkload{tasks: tasks, dist: dist}
	for e, n := range tasks {
		w.first = append(w.first, len(w.ofTask))
		for range n {
			w.ofTask = append(w.ofTask, e)
		}
	}
	w.data = make([]int64, len(w.ofTask))
	return w
}

func (w *distWorkload) Epochs() int         { return len(w.tasks) }
func (w *distWorkload) Tasks(epoch int) int { return w.tasks[epoch] }
func (w *distWorkload) StateLen() int       { return len(w.data) }

func (w *distWorkload) LoadCells(lo uint64, dst []int64)           { copy(dst, w.data[lo:]) }
func (w *distWorkload) StoreCells(lo uint64, src []int64)          { copy(w.data[lo:], src) }
func (w *distWorkload) CellMap() func(addr uint64) (lo, hi uint64) { return nil }

// source is the cell task g reads, or -1.
func (w *distWorkload) source(epoch, g int) int {
	if s := g - w.dist; s >= 0 && w.ofTask[s] < epoch {
		return s
	}
	return -1
}

func (w *distWorkload) Run(epoch, task, tid int, sig *signature.Signature) {
	g := w.first[epoch] + task
	v := own(g)
	if s := w.source(epoch, g); s >= 0 {
		if sig != nil {
			sig.Read(uint64(s))
		}
		v += 3 * w.data[s]
	}
	if sig != nil {
		sig.Write(uint64(g))
	}
	w.data[g] = v
}

// own is task g's own contribution to its cell. It takes a few hundred
// nanoseconds, so that workers run side by side rather than one after
// another.
func own(g int) int64 {
	x := uint64(g)
	for range 256 {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return int64(x >> 40)
}

// sequential is the region's result, computed apart.
func (w *distWorkload) sequential() []int64 {
	want := make([]int64, len(w.data))
	for g := range want {
		want[g] = own(g)
		if s := w.source(w.ofTask[g], g); s >= 0 {
			want[g] += 3 * want[s]
		}
	}
	return want
}

// TestChunkProtocolAtTrueDistance is the property the chunk protocol
// promises: gated at a region's true minimum dependence distance, with the
// chunks that distance gives, every run finishes, ends at the sequential
// result and misspeculates never — the gate orders every conflicting pair,
// and the checker takes no pair of them for overlapping. Shapes, worker
// counts of 2 to 4, distances from 1 to about three epochs, and checkpoint
// periods are drawn at random; every run has a deadline, since the range
// gate is a spin loop.
func TestChunkProtocolAtTrueDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases, chunked := 0, 0
	for cases < 120 {
		epochs := 2 + rng.Intn(10)
		tasks := make([]int, epochs)
		for e := range tasks {
			tasks[e] = 1 + rng.Intn(24)
		}
		dist := 1 + rng.Intn(3*24)
		workers := 2 + rng.Intn(3)
		w := newDistWorkload(tasks, dist)
		if got := Profile(w, signature.Exact, 0).MinDistance; got != int64(dist) {
			continue // no pair of tasks dist apart spans two epochs
		}
		cases++
		maxChunk := 1
		for _, n := range tasks {
			maxChunk = max(maxChunk, ChunkTasks(int64(dist), n, workers))
		}
		if maxChunk > 1 {
			chunked++
		}
		cfg := Config{Workers: workers, SigKind: signature.Exact, SpecDistance: int64(dist), CheckpointEvery: 1 + rng.Intn(epochs)}
		name := fmt.Sprintf("tasks%v_dist%d_workers%d_every%d", tasks, dist, workers, cfg.CheckpointEvery)
		w = newDistWorkload(tasks, dist)
		want := w.sequential()
		finished := make(chan Stats, 1)
		go func() { finished <- RunParallel(w, cfg) }()
		select {
		case st := <-finished:
			for g := range want {
				if w.data[g] != want[g] {
					t.Fatalf("%s: cell %d = %d, want %d", name, g, w.data[g], want[g])
				}
			}
			if st.Misspeculations != 0 {
				t.Fatalf("%s: %d misspeculations at the true distance (chunks of up to %d tasks)", name, st.Misspeculations, maxChunk)
			}
			if total := int64(len(want)); st.Tasks != total {
				t.Fatalf("%s: Tasks = %d, want %d", name, st.Tasks, total)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: did not return: range gate deadlocked", name)
		}
	}
	if chunked < cases/2 {
		t.Fatalf("only %d of %d cases cut epochs into chunks of more than one task", chunked, cases)
	}
}

// TestTasksCountsCommittedSegmentsOnly: Stats.Tasks is the tasks of the
// committed segments plus the inline ones, every time, however many tasks
// of an aborted segment ran before the workers saw the flag — which chunks
// make more of.
func TestTasksCountsCommittedSegmentsOnly(t *testing.T) {
	const epochs, tasks, every, misspec = 24, 16, 4, 10
	for i := 0; i < 50; i++ {
		g := newGrid(epochs, tasks, 2, tasks*2) // disjoint epochs: only the forced misspeculation aborts
		want := g.sequential()
		st := RunParallel(g, Config{Workers: 2, CheckpointEvery: every, SpecDistance: 64, ForceMisspecEpoch: misspec})
		checkResult(t, g, want)
		if st.Misspeculations != 1 || st.ReexecutedEpochs != every {
			t.Fatalf("run %d: %d misspeculations, %d epochs re-executed; want the forced one, and its segment's %d", i, st.Misspeculations, st.ReexecutedEpochs, every)
		}
		if committed := st.Epochs * tasks; st.Tasks != committed+st.InlineTasks || st.Epochs != epochs-every {
			t.Fatalf("run %d: Tasks = %d over %d committed epochs and %d inline tasks, want %d", i, st.Tasks, st.Epochs, st.InlineTasks, committed+st.InlineTasks)
		}
	}
}
