// Package eclat ports the MineBench ECLAT itemset miner (Table 5.1):
// process_inverti walks a graph of itemset nodes (the outer loop) and, for
// each item in a node (the inner loop), appends transaction IDs to the
// vertical database's per-transaction lists. Transaction numbers are
// computed non-linearly, so the conflict pattern is statically opaque; the
// profiled outer dependence manifests on 99% of iterations (§5.1), which
// is why Spec-DOALL on the outer loop loses and DOMORE — with its heavier
// 12.5% scheduler (Table 5.2) — peaks around 5 threads (Fig 5.1(c)).
package eclat

import (
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/epochal"
)

// ItemsPerNode is the inner-loop trip count (tasks per invocation).
const ItemsPerNode = 40

// New builds a deterministic instance. scale 1 gives 600 nodes over a
// 500-bucket vertical database; 99% of a node's buckets collide with the
// previous node's.
func New(scale int) *epochal.Kernel {
	if scale <= 0 {
		scale = 1
	}
	const buckets = 500
	nodes := 600 * scale
	k := &epochal.Kernel{
		BenchName: "ECLAT",
		State:     make([]int64, buckets),
		NumEpochs: nodes,
	}
	rng := workloads.NewRng(0xEC1A7)
	bucketOf := make([]uint64, nodes*ItemsPerNode)
	prev := make([]uint64, 0, ItemsPerNode)
	cur := make([]uint64, 0, ItemsPerNode)
	used := map[uint64]bool{}
	for nidx := 0; nidx < nodes; nidx++ {
		cur = cur[:0]
		clear(used)
		for t := 0; t < ItemsPerNode; t++ {
			var b uint64
			if len(prev) > 0 && rng.Intn(100) < 99 {
				b = prev[(t+1)%len(prev)] // shifted: lands on another thread
			} else {
				b = uint64(rng.Intn(buckets))
			}
			for used[b] {
				b = uint64(rng.Intn(buckets))
			}
			used[b] = true
			cur = append(cur, b)
			bucketOf[nidx*ItemsPerNode+t] = b
		}
		prev = append(prev[:0], cur...)
	}
	k.TasksOf = func(epoch int) int { return ItemsPerNode }
	k.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		writes = append(writes, bucketOf[epoch*ItemsPerNode+task])
		return reads, writes
	}
	k.Update = func(epoch, task int) {
		g := epoch*ItemsPerNode + task
		b := bucketOf[g]
		// Append the transaction id to the bucket's list; modeled as an
		// order-sensitive fold of the id into the bucket summary.
		k.State[b] = k.State[b]*7 + int64(g)%1000 + 1
	}
	return k
}

func init() {
	workloads.Register(workloads.Entry{
		Name: "ECLAT", Suite: "MineBench", Function: "process_inverti", Plan: "Spec-DOALL",
		DomoreOK: true, SpecOK: false,
		Make: func(scale int) workloads.Instance { return New(scale) },
	})
}
