// Package jacobi ports PolyBench jacobi-2d-imper (Table 5.1): T sweeps of a
// five-point stencil alternating between two grids. Each sweep is one
// parallel invocation whose tasks are grid rows; the stencil makes row r of
// one sweep depend on rows r−1..r+1 of the previous sweep, the classic
// cross-invocation dependence pattern barriers serialize and SPECCROSS
// overlaps (Fig 5.2(e)).
package jacobi

import (
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/epochal"
)

// New builds a deterministic instance: an N×N grid with 2·steps epochs of
// N−2 row tasks. scale 1 gives N=100, steps=250 (500 epochs), close to
// Table 5.3's ≈99 tasks/epoch shape.
func New(scale int) *epochal.Kernel {
	if scale <= 0 {
		scale = 1
	}
	const n = 100
	steps := 250 * scale
	// State layout: grid A at [0, n²), grid B at [n², 2n²).
	k := &epochal.Kernel{
		BenchName: "JACOBI",
		State:     make([]int64, 2*n*n),
		NumEpochs: 2 * steps,
	}
	rng := workloads.NewRng(0x1AC0B1)
	for i := range k.State[:n*n] {
		k.State[i] = int64(rng.Intn(1000))
	}
	rowAddr := func(grid, row int) uint64 { return uint64(grid*n + row) }
	k.TasksOf = func(epoch int) int { return n - 2 }
	k.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		src := epoch % 2 // even epochs read A(0) write B(1); odd the reverse
		dst := 1 - src
		r := task + 1
		reads = append(reads, rowAddr(src, r-1), rowAddr(src, r), rowAddr(src, r+1))
		writes = append(writes, rowAddr(dst, r))
		return reads, writes
	}
	k.Update = func(epoch, task int) {
		src := (epoch % 2) * n * n
		dst := (1 - epoch%2) * n * n
		r := task + 1
		for c := 1; c < n-1; c++ {
			i := r*n + c
			k.State[dst+i] = (k.State[src+i] + k.State[src+i-1] + k.State[src+i+1] +
				k.State[src+i-n] + k.State[src+i+n]) / 5
		}
	}
	// Row-granular addresses: grid*n+row covers the n cells of that row.
	k.AddrSpan = epochal.BlockSpan(n)
	return k
}

func init() {
	workloads.Register(workloads.Entry{
		Name: "JACOBI", Suite: "PolyBench", Function: "main", Plan: "DOALL",
		DomoreOK: false, SpecOK: true,
		Make: func(scale int) workloads.Instance { return New(scale) },
	})
}
