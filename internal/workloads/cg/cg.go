// Package cg ports the performance-dominating loop nest of NAS CG
// (Fig 3.1): an outer loop whose body computes inner-loop bounds and an
// inner DOALL loop updating C through an index pattern. Within one
// invocation no two iterations touch the same element; across invocations
// the update dependence manifests on 72.4% of outer iterations (the
// profiled rate §3.1 reports), which is what makes barrier-parallelized CG
// slower than sequential (Fig 3.3) and DOMORE's runtime synchronization
// profitable.
package cg

import (
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
)

// TasksPerEpoch matches Table 5.3: 63000 tasks over 7000 epochs.
const TasksPerEpoch = 9

// CG is one benchmark instance.
type CG struct {
	// Invs is the outer trip count (inner-loop invocation count).
	Invs int
	// addr[g] is the element updated by combined iteration g.
	addr []uint64
	// C is the updated array.
	C []int64
	// Space is len(C).
	Space int
}

// New builds a deterministic instance. scale 1 gives 700 invocations of 9
// iterations over a 2000-element array; the manifest rate of the
// cross-invocation update dependence is ≈72%.
func New(scale int) *CG {
	if scale <= 0 {
		scale = 1
	}
	g := &CG{
		Invs:  700 * scale,
		Space: 2000,
	}
	g.C = make([]int64, g.Space)
	rng := workloads.NewRng(0xC6)
	const lag = 3 // epochs between a reuse and its source
	var history [][]uint64
	lastUsed := map[uint64]int{}
	for inv := 0; inv < g.Invs; inv++ {
		cur := make([]uint64, 0, TasksPerEpoch)
		for t := 0; t < TasksPerEpoch; t++ {
			var a uint64
			// With probability ~72.4%, conflict with the invocation lag
			// epochs back — shifted one slot so round-robin puts the
			// conflicting iterations on different threads. The lag keeps
			// the minimum dependence distance above typical worker counts,
			// which is what lets SPECCROSS profile CG as speculation-safe
			// (Table 5.3 records no close conflicts for its CG region)
			// while DOMORE still observes the frequent dependences.
			reused := false
			if inv >= lag && rng.Intn(1000) < 724 {
				a = history[inv-lag][(t+1)%TasksPerEpoch]
				if last, ok := lastUsed[a]; ok && last == inv-lag {
					reused = true
				}
			}
			if !reused {
				// Fresh draw: avoid anything touched in the recent window
				// so no accidental short-distance conflict arises.
				for {
					a = uint64(rng.Intn(g.Space))
					if last, ok := lastUsed[a]; !ok || inv-last > 2*lag {
						break
					}
				}
			}
			lastUsed[a] = inv
			cur = append(cur, a)
			g.addr = append(g.addr, a)
		}
		history = append(history, cur)
	}
	return g
}

// Name implements workloads.Instance.
func (g *CG) Name() string { return "CG" }

func (g *CG) update(globalIter int) {
	a := g.addr[globalIter]
	g.C[a] = g.C[a]*3 + int64(globalIter) + 1
}

// RunSequential implements workloads.Instance. It honors Invs rather than
// the precomputed address table's length, so truncated instances stay
// consistent across execution strategies.
func (g *CG) RunSequential() {
	for gi := 0; gi < g.Invs*TasksPerEpoch; gi++ {
		g.update(gi)
	}
}

// Checksum implements workloads.Instance.
func (g *CG) Checksum() uint64 {
	return workloads.FoldChecksum(1469598103934665603, g.C)
}

// --- domore.Workload ---

// Invocations implements domore.Workload.
func (g *CG) Invocations() int { return g.Invs }

// Iterations implements domore.Workload.
func (g *CG) Iterations(inv int) int { return TasksPerEpoch }

// Sequential implements domore.Workload (the bound computation of Fig 3.1;
// the synthetic instance precomputes its bounds, so this is a no-op).
func (g *CG) Sequential(inv int) {}

// ComputeAddr implements domore.Workload.
func (g *CG) ComputeAddr(inv, iter int, buf []uint64) []uint64 {
	return append(buf, g.addr[inv*TasksPerEpoch+iter])
}

// Execute implements domore.Workload.
func (g *CG) Execute(inv, iter, tid int) {
	g.update(inv*TasksPerEpoch + iter)
}

// --- speccross.Workload ---

// Epochs implements speccross.Workload.
func (g *CG) Epochs() int { return g.Invs }

// Tasks implements speccross.Workload.
func (g *CG) Tasks(epoch int) int { return TasksPerEpoch }

// Run implements speccross.Workload.
func (g *CG) Run(epoch, task, tid int, sig *signature.Signature) {
	gi := epoch*TasksPerEpoch + task
	if sig != nil {
		a := g.addr[gi]
		sig.Read(a)
		sig.Write(a)
	}
	g.update(gi)
}

// StateLen implements speccross.Workload: the cells are C.
func (g *CG) StateLen() int { return len(g.C) }

// LoadCells implements speccross.Workload.
func (g *CG) LoadCells(lo uint64, dst []int64) { copy(dst, g.C[lo:]) }

// StoreCells implements speccross.Workload.
func (g *CG) StoreCells(lo uint64, src []int64) { copy(g.C[lo:], src) }

// CellMap implements speccross.Workload: a signature address is the index
// of the element of C it names.
func (g *CG) CellMap() func(addr uint64) (lo, hi uint64) { return speccross.IdentityCells }

// Snapshot and Restore exist for the benchmark module; see
// workloads.Snapshot.
func (g *CG) Snapshot() any { return workloads.Snapshot(g) }
func (g *CG) Restore(s any) { workloads.Restore(g, s) }

func init() {
	workloads.Register(workloads.Entry{
		Name: "CG", Suite: "NAS", Function: "sparse", Plan: "LOCALWRITE",
		DomoreOK: true, SpecOK: true,
		Make: func(scale int) workloads.Instance { return New(scale) },
	})
}
