// Package equake ports the SPEC FP 183.equake kernel (Table 5.1): an
// earthquake wave-propagation simulation whose timestep loop runs a sparse
// matrix-vector product (smvp) followed by a leapfrog displacement update —
// three parallel invocations per step over node chunks of an unstructured
// mesh. The sparse structure defeats static analysis, so the baseline pays
// three barriers per step; the buffers ping-pong with the step parity, so
// the closest true dependence sits ~two invocations away and speculation
// across the barriers is almost always safe (Table 5.3 records no close
// conflicts for EQUAKE; Fig 5.2(b) shows SPECCROSS scaling).
package equake

import (
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/epochal"
)

// Chunks is the task count per invocation (Table 5.3: 66000 tasks over
// 3000 epochs → 22).
const Chunks = 22

// New builds a deterministic instance over a synthetic mostly-block-
// diagonal mesh. scale 1 gives 1000 timesteps (3000 epochs).
func New(scale int) *epochal.Kernel {
	if scale <= 0 {
		scale = 1
	}
	const nodesPerChunk = 50
	const nodes = Chunks * nodesPerChunk
	steps := 1000 * scale
	// Fields, each nodes wide: w0, w1 (smvp results, ping-pong by step
	// parity), disp0, disp1 (displacements, ping-pong), dispOld0, dispOld1
	// (history, ping-pong), stiff (read-only stiffness). The ping-pong is
	// what keeps every cross-invocation dependence ≥ two invocations away.
	const (
		w0 = iota
		w1
		disp0
		disp1
		dispOld0
		dispOld1
		stiff
		numFields
	)
	k := &epochal.Kernel{
		BenchName: "EQUAKE",
		State:     make([]int64, numFields*nodes),
		NumEpochs: 3 * steps,
	}
	rng := workloads.NewRng(0xE9)
	for i := range k.State {
		k.State[i] = int64(rng.Intn(211))
	}
	// Off-diagonal mesh edges: each chunk additionally reads one nearby
	// remote chunk. The small skew keeps the closest cross-invocation
	// dependence well above typical worker counts.
	remote := func(c int) int { return (c + 5) % Chunks }

	chunkAddr := func(field, c int) uint64 { return uint64(field*Chunks + c) }
	wBuf := func(s int) int { return w0 + s%2 }
	dispSrc := func(s int) int { return disp0 + s%2 }
	dispDst := func(s int) int { return disp0 + (s+1)%2 }
	oldR := func(s int) int { return dispOld0 + (s+1)%2 } // written at step s−1
	oldW := func(s int) int { return dispOld0 + s%2 }

	k.TasksOf = func(epoch int) int { return Chunks }
	k.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		s := epoch / 3
		switch epoch % 3 {
		case 0: // smvp: w[s%2][c] = K·disp_src (own + remote chunk)
			writes = append(writes, chunkAddr(wBuf(s), task))
			reads = append(reads,
				chunkAddr(dispSrc(s), task),
				chunkAddr(dispSrc(s), remote(task)),
				chunkAddr(stiff, task))
		case 1: // leapfrog integration: disp_dst from disp_src, the
			// previous step's smvp result, and dispOld
			writes = append(writes, chunkAddr(dispDst(s), task))
			reads = append(reads,
				chunkAddr(dispSrc(s), task),
				chunkAddr(wBuf(s+1), task), // written at phase 0 of step s−1
				chunkAddr(oldR(s), task))
		default: // history shift: dispOld = disp_src
			writes = append(writes, chunkAddr(oldW(s), task))
			reads = append(reads, chunkAddr(dispSrc(s), task))
		}
		return reads, writes
	}
	base := func(f int) int { return f * nodes }
	k.Update = func(epoch, task int) {
		st := k.State
		s := epoch / 3
		lo := task * nodesPerChunk
		switch epoch % 3 {
		case 0:
			rlo := remote(task) * nodesPerChunk
			src := base(dispSrc(s))
			dst := base(wBuf(s))
			for i := 0; i < nodesPerChunk; i++ {
				st[dst+lo+i] = st[base(stiff)+lo+i]*st[src+lo+i]%100003 +
					st[src+rlo+(i*13)%nodesPerChunk]%997
			}
		case 1:
			src := base(dispSrc(s))
			dst := base(dispDst(s))
			wPrev := base(wBuf(s + 1))
			old := base(oldR(s))
			for i := 0; i < nodesPerChunk; i++ {
				st[dst+lo+i] = st[src+lo+i]/2 + st[wPrev+lo+i]%4099 -
					st[old+lo+i]%257
			}
		default:
			src := base(dispSrc(s))
			dst := base(oldW(s))
			for i := 0; i < nodesPerChunk; i++ {
				st[dst+lo+i] = st[src+lo+i]
			}
		}
	}
	// Chunk-granular addresses: field*Chunks+c covers that chunk's nodes.
	k.AddrSpan = epochal.BlockSpan(nodesPerChunk)
	return k
}

func init() {
	workloads.Register(workloads.Entry{
		Name: "EQUAKE", Suite: "SpecFP", Function: "main", Plan: "DOALL",
		// The ping-pong field planes scatter each task's addresses, so a
		// range signature spans unrelated fields; use exact sets (§4.2.3's
		// custom-generator hook).
		DomoreOK: false, SpecOK: true, Exact: true,
		Make: func(scale int) workloads.Instance { return New(scale) },
	})
}
