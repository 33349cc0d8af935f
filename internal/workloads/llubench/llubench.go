// Package llubench ports the LLVMBench linked-list update microbenchmark
// (Table 5.1): every invocation walks a set of linked lists and updates
// each node's payload; a task owns one list. Lists are disjoint, so no
// cross-thread conflict ever manifests at runtime (Table 5.3 records no
// observed conflicts) — yet the pointer chasing defeats static analysis,
// so the baseline still pays a barrier per invocation. This is the
// best-case workload for both DOMORE (Fig 5.1(e)) and SPECCROSS
// (Fig 5.2(f)).
package llubench

import (
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/epochal"
)

// Lists is the task count per invocation (Table 5.3: 110000 tasks over
// 2000 epochs → 55).
const Lists = 55

// NodesPerList is each list's length.
const NodesPerList = 40

// New builds a deterministic instance. scale 1 gives 2000 invocations.
// Each list's nodes are chained in a scrambled order so the walk is real
// pointer chasing.
func New(scale int) *epochal.Kernel {
	if scale <= 0 {
		scale = 1
	}
	epochs := 2000 * scale
	k := &epochal.Kernel{
		BenchName: "LLUBENCH",
		// Per node: payload and next-index, stored as two planes.
		State:     make([]int64, 2*Lists*NodesPerList),
		NumEpochs: epochs,
	}
	rng := workloads.NewRng(0x77B)
	next := k.State[Lists*NodesPerList:]
	heads := make([]int, Lists)
	for l := 0; l < Lists; l++ {
		perm := rng.Perm(NodesPerList)
		for i := 0; i < NodesPerList-1; i++ {
			next[l*NodesPerList+perm[i]] = int64(perm[i+1])
		}
		next[l*NodesPerList+perm[NodesPerList-1]] = -1
		heads[l] = perm[0]
	}
	k.TasksOf = func(epoch int) int { return Lists }
	k.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		// List-granular: the whole list is one shadowed object (the
		// conservative summary a pointer-based analysis would use).
		writes = append(writes, uint64(task))
		return reads, writes
	}
	k.Update = func(epoch, task int) {
		base := task * NodesPerList
		i := heads[task]
		for i >= 0 {
			k.State[base+i] = k.State[base+i]*3 + int64(epoch%97) + 1
			i = int(next[base+i])
		}
	}
	return k
}

func init() {
	workloads.Register(workloads.Entry{
		Name: "LLUBENCH", Suite: "LLVMBench", Function: "main", Plan: "DOALL",
		DomoreOK: true, SpecOK: true,
		Make: func(scale int) workloads.Instance { return New(scale) },
	})
}
