// Package symm ports PolyBench SYMM (Table 5.1): symmetric matrix multiply
// with a three-level nest whose middle loop is DOALL. Its defining
// evaluation property is tiny invocations — §5.1 measures ≈4000 cycles per
// inner-loop invocation — so per-invocation synchronization overhead
// dominates and neither barriers nor DOMORE scale well (Fig 5.1(f)),
// while SPECCROSS's amortized epochs fare better (Fig 5.2(h)).
package symm

import (
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/epochal"
)

// New builds a deterministic instance: sweeps over an n-row matrix where
// epoch (s, i) updates row i from row i−1 (the symmetric accumulation's
// row-to-row flow), with few, very small tasks per epoch. scale 1 gives
// n=250 rows × 8 sweeps = 2000 epochs (Table 5.3's epoch count).
func New(scale int) *epochal.Kernel {
	if scale <= 0 {
		scale = 1
	}
	const n = 250      // rows (epochs per sweep)
	const width = 25   // task count per epoch: column blocks
	const cols = width // one cell per task keeps tasks tiny
	sweeps := 8 * scale
	k := &epochal.Kernel{
		BenchName: "SYMM",
		State:     make([]int64, n*cols),
		NumEpochs: n * sweeps,
	}
	rng := workloads.NewRng(0x57)
	for i := range k.State {
		k.State[i] = int64(rng.Intn(97))
	}
	cell := func(row, col int) int { return row*cols + col }
	k.TasksOf = func(epoch int) int { return width }
	k.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		row := epoch % n
		writes = append(writes, uint64(cell(row, task)))
		if row > 0 {
			reads = append(reads, uint64(cell(row-1, task)))
		}
		return reads, writes
	}
	k.Update = func(epoch, task int) {
		row := epoch % n
		i := cell(row, task)
		acc := k.State[i] * 2
		if row > 0 {
			acc += k.State[cell(row-1, task)]
		}
		k.State[i] = acc%100003 + int64(task)
	}
	// Element-granular addresses: signature address == State index.
	k.AddrSpan = speccross.IdentityCells
	return k
}

func init() {
	workloads.Register(workloads.Entry{
		Name: "SYMM", Suite: "PolyBench", Function: "main", Plan: "DOALL",
		DomoreOK: true, SpecOK: true,
		Make: func(scale int) workloads.Instance { return New(scale) },
	})
}
