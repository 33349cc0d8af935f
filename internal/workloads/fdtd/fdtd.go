// Package fdtd ports PolyBench fdtd-2d (Table 5.1): a finite-difference
// time-domain electromagnetic kernel. Every timestep runs three parallel
// invocations — update ey from hz, update ex from hz, update hz from
// ex/ey — so the region has three barriers per step in the baseline and
// dense cross-invocation dependences between consecutive phases
// (Fig 5.2(c); Table 5.3 reports 1200 epochs with a finite minimum
// dependence distance).
package fdtd

import (
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/epochal"
)

// New builds a deterministic instance: an N×N domain, 3·steps epochs of
// N row tasks. scale 1 gives N=120, steps=400 (1200 epochs, matching
// Table 5.3's epoch count).
func New(scale int) *epochal.Kernel {
	if scale <= 0 {
		scale = 1
	}
	const n = 120
	steps := 400 * scale
	// State: ey at 0, ex at n², hz at 2n².
	k := &epochal.Kernel{
		BenchName: "FDTD",
		State:     make([]int64, 3*n*n),
		NumEpochs: 3 * steps,
	}
	rng := workloads.NewRng(0xFD7D)
	for i := range k.State {
		k.State[i] = int64(rng.Intn(512))
	}
	const (
		ey = 0
		ex = 1
		hz = 2
	)
	rowAddr := func(field, row int) uint64 { return uint64(field*n + row) }
	k.TasksOf = func(epoch int) int { return n }
	k.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		r := task
		switch epoch % 3 {
		case 0: // ey[r] -= k·(hz[r] − hz[r−1])
			writes = append(writes, rowAddr(ey, r))
			reads = append(reads, rowAddr(hz, r))
			if r > 0 {
				reads = append(reads, rowAddr(hz, r-1))
			}
		case 1: // ex[r] -= k·(hz[r] − hz[r], col shifted): row-local
			writes = append(writes, rowAddr(ex, r))
			reads = append(reads, rowAddr(hz, r))
		default: // hz[r] -= k·(ex[r] + ey[r+1] …)
			writes = append(writes, rowAddr(hz, r))
			reads = append(reads, rowAddr(ex, r), rowAddr(ey, r))
			if r < n-1 {
				reads = append(reads, rowAddr(ey, r+1))
			}
		}
		return reads, writes
	}
	k.Update = func(epoch, task int) {
		r := task
		st := k.State
		base := func(f int) int { return f * n * n }
		switch epoch % 3 {
		case 0:
			if r == 0 {
				for c := 0; c < n; c++ {
					st[base(ey)+c] = int64(epoch / 3)
				}
				return
			}
			for c := 0; c < n; c++ {
				st[base(ey)+r*n+c] -= (st[base(hz)+r*n+c] - st[base(hz)+(r-1)*n+c]) / 2
			}
		case 1:
			for c := 1; c < n; c++ {
				st[base(ex)+r*n+c] -= (st[base(hz)+r*n+c] - st[base(hz)+r*n+c-1]) / 2
			}
		default:
			if r == n-1 {
				return
			}
			for c := 0; c < n-1; c++ {
				st[base(hz)+r*n+c] -= (st[base(ex)+r*n+c+1] - st[base(ex)+r*n+c] +
					st[base(ey)+(r+1)*n+c] - st[base(ey)+r*n+c]) / 3
			}
		}
	}
	// Row-granular addresses: field*n+row covers the n cells of that row.
	k.AddrSpan = epochal.BlockSpan(n)
	return k
}

func init() {
	workloads.Register(workloads.Entry{
		Name: "FDTD", Suite: "PolyBench", Function: "main", Plan: "DOALL",
		DomoreOK: false, SpecOK: true,
		Make: func(scale int) workloads.Instance { return New(scale) },
	})
}
