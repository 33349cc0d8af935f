package chaos

import (
	"fmt"

	"crossinv/internal/workloads"
)

// Generation parameter bounds. Cases stay small on purpose: the point of
// a differential harness is many schedules over many shapes, not big
// inputs — a dependence-ordering bug that needs a large state to
// manifest needs, above all, the *dependence*, and small cases shrink
// and replay in milliseconds.
//
// genMaxTasks is one and a half times shardBatch, so a case with more than
// shardBatch blocks mixes invocations that fill a chunk of the sharded
// scheduler with ones that do not.
const (
	genMaxEpochs    = 16
	genMaxTasks     = 12
	genMaxBlock     = 12
	genMaxAddrs     = 6
	genMaxWork      = 512
	genShapeAffine  = 0
	genShapeIndir   = 1
	genShapeScatter = 2
)

// Generate derives a complete Spec from a seed. Every structural choice —
// invocation count, per-epoch task counts, dependence density and
// distance, access-pattern shape (affine, indirect, scattered), signature
// kind — comes from the seeded generator, so a seed is a full replay
// token.
//
// The dependence structure is block-ownership based: task index t owns a
// private block of state addresses and only ever writes inside it, which
// guarantees within-epoch independence by construction. Cross-invocation
// dependences come from reads into other tasks' blocks, steered away
// from the same epoch's writes; their manifest distance is controlled by
// per-task write periods (a task that writes every k-th epoch leaves its
// readers depending on values k epochs old).
func Generate(seed uint64) *Spec {
	rng := workloads.NewRng(seed)

	nEpochs := 2 + rng.Intn(genMaxEpochs-1)
	nBlocks := 2 + rng.Intn(genMaxTasks-1)
	block := 3 + rng.Intn(genMaxBlock-2)
	shape := rng.Intn(3)
	// density: expected cross-block reads per task, in eighths.
	density := rng.Intn(9)
	kinds := []string{"range", "bloom", "exact"}
	spec := &Spec{
		Name:     fmt.Sprintf("chaos-%d", seed),
		Seed:     seed,
		StateLen: nBlocks * block,
		SigKind:  kinds[rng.Intn(3)],
	}

	// Per-task write cadence: period 1 writes every epoch, longer periods
	// stretch the dependence distance their readers observe.
	period := make([]int, nBlocks)
	phase := make([]int, nBlocks)
	for t := range period {
		period[t] = 1 + rng.Intn(3)
		phase[t] = rng.Intn(period[t])
	}

	// Indirect shape: one shared permutation per block.
	perm := make([][]int, nBlocks)
	for t := range perm {
		perm[t] = rng.Perm(block)
	}

	inBlock := func(t, i int) uint64 { return uint64(t*block + i%block) }

	for e := 0; e < nEpochs; e++ {
		nTasks := 1 + rng.Intn(nBlocks)
		ep := EpochSpec{Tasks: make([]TaskSpec, nTasks)}

		// Writes first: each task's writes stay inside its own block.
		epochWrites := make(map[uint64]bool)
		for t := 0; t < nTasks; t++ {
			ts := &ep.Tasks[t]
			if e%period[t] == phase[t] {
				nw := 1 + rng.Intn(genMaxAddrs)
				base := rng.Intn(block)
				stride := 1 + rng.Intn(3)
				for i := 0; i < nw; i++ {
					var a uint64
					switch shape {
					case genShapeAffine:
						a = inBlock(t, base+stride*i)
					case genShapeIndir:
						a = inBlock(t, perm[t][(base+i)%block])
					default:
						a = inBlock(t, rng.Intn(block))
					}
					ts.Writes = append(ts.Writes, a)
					epochWrites[a] = true
				}
			}
			if rng.Intn(4) == 0 {
				ts.Work = rng.Intn(genMaxWork)
			}
		}

		// Reads: own-block reads are always safe; cross-block reads (the
		// cross-invocation dependences) must dodge this epoch's writes to
		// preserve within-epoch independence.
		for t := 0; t < nTasks; t++ {
			ts := &ep.Tasks[t]
			for i, nr := 0, rng.Intn(genMaxAddrs); i < nr; i++ {
				ts.Reads = append(ts.Reads, inBlock(t, rng.Intn(block)))
			}
			for d := 0; d < density; d++ {
				if rng.Intn(8) >= 4 {
					continue
				}
				for attempt := 0; attempt < 4; attempt++ {
					o := rng.Intn(nBlocks)
					if o == t {
						continue
					}
					a := inBlock(o, rng.Intn(block))
					if !epochWrites[a] {
						ts.Reads = append(ts.Reads, a)
						break
					}
				}
			}
		}
		spec.Epochs = append(spec.Epochs, ep)
	}

	if err := spec.Validate(); err != nil {
		// A generator bug, not an input problem: the construction above is
		// supposed to be correct by design for every seed.
		panic(fmt.Sprintf("chaos: generated invalid spec for seed %d: %v", seed, err))
	}
	return spec
}
