// Package loopdep ports the OMPBench LOOPDEP benchmark (Table 5.1): a
// region of loop invocations with a *known, regular* cross-invocation
// dependence distance — the profiler measures ≈500 tasks on the training
// input and ≈800 on the reference input (Table 5.3), which is what the
// SPECCROSS speculative range is set from.
package loopdep

import (
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/epochal"
)

// New builds a deterministic instance: five rotating buffers of M cells;
// epoch e writes buffer e mod 5 and reads the buffer written two epochs
// earlier (anti- and output-dependences rotate further away), so the
// minimum dependence distance is exactly 2·M tasks. scale 1 gives M=245
// tasks/epoch and 1000 epochs (245000 tasks, Table 5.3's counts; distance
// 490 ≈ the measured 500).
func New(scale int) *epochal.Kernel {
	if scale <= 0 {
		scale = 1
	}
	const m = 245
	epochs := 1000 * scale
	k := &epochal.Kernel{
		BenchName: "LOOPDEP",
		State:     make([]int64, 5*m),
		NumEpochs: epochs,
	}
	rng := workloads.NewRng(0x100DE)
	for i := range k.State {
		k.State[i] = int64(rng.Intn(1 << 16))
	}
	k.TasksOf = func(epoch int) int { return m }
	k.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		dst := (epoch % 5) * m
		src := ((epoch + 3) % 5) * m // == (epoch−2) mod 5
		writes = append(writes, uint64(dst+task))
		reads = append(reads, uint64(src+task))
		return reads, writes
	}
	k.Update = func(epoch, task int) {
		dst := (epoch%5)*m + task
		src := ((epoch+3)%5)*m + task
		k.State[dst] = k.State[dst]*5 + k.State[src]%1009 + int64(epoch)
	}
	// Element-granular addresses: signature address == State index.
	k.AddrSpan = speccross.IdentityCells
	return k
}

func init() {
	workloads.Register(workloads.Entry{
		Name: "LOOPDEP", Suite: "OMPBench", Function: "main", Plan: "DOALL",
		DomoreOK: false, SpecOK: true,
		Make: func(scale int) workloads.Instance { return New(scale) },
	})
}
