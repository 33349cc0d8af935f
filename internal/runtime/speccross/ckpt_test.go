package speccross

import (
	"testing"

	"crossinv/internal/runtime/signature"
)

// deltaArrayWorkload is a workload with a cell map, a large state and a small
// per-task write set: each task owns the cells congruent to its task index
// and writes a few of them per epoch (record-before-write), so tasks of one
// epoch are independent and tasks of different epochs conflict only within
// one owner — which always runs on the same worker row, so the checker
// never flags it. Misspeculation is driven by injection instead.
type deltaArrayWorkload struct {
	epochs, tasks, cells int
	writesPerTask        int
	state                []int64
	irr                  map[int]bool
}

func newDeltaArray(epochs, tasks, cells int) *deltaArrayWorkload {
	return &deltaArrayWorkload{
		epochs: epochs, tasks: tasks, cells: cells, writesPerTask: 4,
		state: make([]int64, cells),
		irr:   map[int]bool{},
	}
}

func (w *deltaArrayWorkload) Epochs() int             { return w.epochs }
func (w *deltaArrayWorkload) Tasks(int) int           { return w.tasks }
func (w *deltaArrayWorkload) Irreversible(e int) bool { return w.irr[e] }

func (w *deltaArrayWorkload) StateLen() int                              { return w.cells }
func (w *deltaArrayWorkload) LoadCells(lo uint64, dst []int64)           { copy(dst, w.state[lo:]) }
func (w *deltaArrayWorkload) StoreCells(lo uint64, src []int64)          { copy(w.state[lo:], src) }
func (w *deltaArrayWorkload) CellMap() func(addr uint64) (lo, hi uint64) { return IdentityCells }

func (w *deltaArrayWorkload) cellOf(e, t, j int) int {
	slots := w.cells / w.tasks
	return t + ((e*3+j*7)%slots)*w.tasks
}

func (w *deltaArrayWorkload) Run(e, t, tid int, sig *signature.Signature) {
	for j := 0; j < w.writesPerTask; j++ {
		c := w.cellOf(e, t, j)
		if sig != nil {
			sig.Write(uint64(c))
		}
		w.state[c] = w.state[c]*3 + int64(e*1000+t*10+j+1)
	}
}

func (w *deltaArrayWorkload) sequential() []int64 {
	saved := append([]int64(nil), w.state...)
	for e := 0; e < w.epochs; e++ {
		for t := 0; t < w.tasks; t++ {
			w.Run(e, t, 0, nil)
		}
	}
	out := w.state
	w.state = saved
	return out
}

// noMap exposes only the Workload methods of the workload it wraps, with
// no cell map, so every checkpoint of it takes the whole image.
type noMap struct{ Workload }

func (noMap) CellMap() func(addr uint64) (lo, hi uint64) { return nil }

// TestIncrementalCheckpointEquivalence runs the same workload — including
// an irreversible epoch (untracked execution forcing a capture of the whole
// image) and an injected misspeculation (forcing a rollback) — with no cell
// map and with one, and requires identical final state, equal to the
// sequential replay.
func TestIncrementalCheckpointEquivalence(t *testing.T) {
	build := func() *deltaArrayWorkload {
		w := newDeltaArray(40, 8, 1<<14)
		w.irr[17] = true
		return w
	}
	want := build().sequential()

	var incStats Stats
	for _, mode := range []string{"whole", "incremental"} {
		w := build()
		var view Workload = w
		if mode == "whole" {
			view = noMap{w}
		}
		st := RunParallel(view, Config{
			Workers:           4,
			SigKind:           signature.Exact,
			CheckpointEvery:   10,
			ForceMisspecEpoch: 25,
		})
		if st.Misspeculations != 1 {
			t.Fatalf("%s: Misspeculations = %d, want the 1 injected", mode, st.Misspeculations)
		}
		if got := st.DeltaCheckpoints > 0; got != (mode == "incremental") {
			t.Fatalf("%s: DeltaCheckpoints = %d", mode, st.DeltaCheckpoints)
		}
		for i := range want {
			if w.state[i] != want[i] {
				t.Fatalf("%s: state[%d] = %d, sequential = %d", mode, i, w.state[i], want[i])
			}
		}
		if mode == "incremental" {
			incStats = st
		}
	}

	if incStats.DeltaCheckpoints == 0 {
		t.Error("incremental mode took no delta checkpoints")
	}
	// The point of checkpoint substitution: total refreshed cells must be
	// bounded by the tracked write set, far below one full copy per
	// checkpoint. Upper bound: every task write distinct across all
	// committed segments.
	maxDirty := int64(40 * 8 * 4)
	if incStats.DeltaCells > maxDirty {
		t.Errorf("DeltaCells = %d, want <= %d (write-set bound)", incStats.DeltaCells, maxDirty)
	}
	if full := int64(1 << 14); incStats.DeltaCells >= full {
		t.Errorf("DeltaCells = %d >= one full state copy (%d); substitution saved nothing", incStats.DeltaCells, full)
	}
}

// TestCheckpointNs pins what Stats.CheckpointNs measures: a delta run with
// a forced misspeculation spends time capturing, committing and rolling
// back its image, and a region the guard ran wholly inline takes no image
// at all.
func TestCheckpointNs(t *testing.T) {
	st := Run(newDeltaArray(12, 8, 1<<12), Config{
		Workers: 2, SigKind: signature.Exact, CheckpointEvery: 4, ForceMisspecEpoch: 6,
	})
	if st.Misspeculations != 1 || st.CheckpointNs <= 0 {
		t.Errorf("forced misspeculation: %d rollbacks, CheckpointNs %d; want 1 and a positive time", st.Misspeculations, st.CheckpointNs)
	}
	// The probe needs two sampled epochs before it can decide, so a
	// two-epoch region always runs to its end on the calling thread.
	st = Run(newDeltaArray(2, 8, 1<<12), Config{Workers: 2, SigKind: signature.Exact, CheckpointEvery: 4})
	if st.Inline != 2 || st.CheckpointNs != 0 {
		t.Errorf("inline region: %d of 2 epochs inline, CheckpointNs %d; want 2 and 0", st.Inline, st.CheckpointNs)
	}
}

// TestBlockGranularDeltaSpans exercises cell map spans wider than one
// cell: block-granular signature addresses must refresh and roll back the
// whole block.
func TestBlockGranularDeltaSpans(t *testing.T) {
	const blocks, blockSize = 16, 8
	w := &blockDeltaWorkload{
		epochs: 20, tasks: 4,
		state: make([]int64, blocks*blockSize),
	}
	want := w.sequential()
	st := RunParallel(w, Config{
		Workers:           2,
		SigKind:           signature.Exact,
		CheckpointEvery:   5,
		ForceMisspecEpoch: 7,
	})
	if st.Misspeculations != 1 {
		t.Fatalf("Misspeculations = %d, want 1", st.Misspeculations)
	}
	for i := range want {
		if w.state[i] != want[i] {
			t.Fatalf("state[%d] = %d, sequential = %d", i, w.state[i], want[i])
		}
	}
}

// blockDeltaWorkload records block-granular addresses (block b covers cells
// [8b, 8b+8)) and mutates every cell of the block, like the chunked
// kernels (EQUAKE, BLACKSCHOLES).
type blockDeltaWorkload struct {
	epochs, tasks int
	state         []int64
}

const blockCells = 8

func (w *blockDeltaWorkload) Epochs() int   { return w.epochs }
func (w *blockDeltaWorkload) Tasks(int) int { return w.tasks }

func (w *blockDeltaWorkload) StateLen() int                     { return len(w.state) }
func (w *blockDeltaWorkload) LoadCells(lo uint64, dst []int64)  { copy(dst, w.state[lo:]) }
func (w *blockDeltaWorkload) StoreCells(lo uint64, src []int64) { copy(w.state[lo:], src) }
func (w *blockDeltaWorkload) CellMap() func(addr uint64) (lo, hi uint64) {
	return func(a uint64) (uint64, uint64) { return a * blockCells, (a + 1) * blockCells }
}

func (w *blockDeltaWorkload) blockOf(e, t int) int {
	blocks := len(w.state) / blockCells
	// Owner partitioning as in deltaArrayWorkload, at block granularity.
	perOwner := blocks / w.tasks
	return t + ((e*5)%perOwner)*w.tasks
}

func (w *blockDeltaWorkload) Run(e, t, tid int, sig *signature.Signature) {
	b := w.blockOf(e, t)
	if sig != nil {
		sig.Write(uint64(b))
	}
	for i := 0; i < blockCells; i++ {
		c := b*blockCells + i
		w.state[c] = w.state[c]*5 + int64(e*100+t*10+i+1)
	}
}

func (w *blockDeltaWorkload) sequential() []int64 {
	saved := append([]int64(nil), w.state...)
	for e := 0; e < w.epochs; e++ {
		for t := 0; t < w.tasks; t++ {
			w.Run(e, t, 0, nil)
		}
	}
	out := w.state
	w.state = saved
	return out
}
