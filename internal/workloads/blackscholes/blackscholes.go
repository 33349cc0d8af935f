// Package blackscholes ports PARSEC blackscholes (Table 5.1): option
// pricing where bs_thread re-prices the whole option portfolio NUM_RUNS
// times. Each run is one inner-loop invocation (the paper parallelizes it
// with Spec-DOALL); runs write the same price array, so consecutive
// invocations carry same-index dependences that round-robin keeps on one
// thread — DOMORE therefore overlaps runs nearly perfectly (Fig 5.1(a)).
package blackscholes

import (
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/epochal"
)

// Chunks is the task count per run (option blocks).
const Chunks = 64

// New builds a deterministic instance. scale 1 gives 600 runs over 64
// option chunks of 32 options each.
func New(scale int) *epochal.Kernel {
	if scale <= 0 {
		scale = 1
	}
	const perChunk = 32
	const options = Chunks * perChunk
	runs := 600 * scale
	// State: prices at [0, options), read-only option parameters at
	// [options, 2·options).
	k := &epochal.Kernel{
		BenchName: "BLACKSCHOLES",
		State:     make([]int64, 2*options),
		NumEpochs: runs,
	}
	rng := workloads.NewRng(0xB5)
	params := k.State[options:]
	for i := range params {
		params[i] = int64(rng.Intn(1 << 20))
	}
	k.TasksOf = func(epoch int) int { return Chunks }
	k.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		// Chunk-granular: each task owns one block of prices.
		writes = append(writes, uint64(task))
		reads = append(reads, uint64(Chunks+task)) // its parameter block
		return reads, writes
	}
	k.Update = func(epoch, task int) {
		lo := task * perChunk
		for i := 0; i < perChunk; i++ {
			// A fixed-point stand-in for the CNDF pipeline: several
			// dependent integer ops per option.
			p := params[lo+i] + int64(epoch)
			v := int64(workloads.Mix64(uint64(p)) >> 40)
			k.State[lo+i] = k.State[lo+i]/3 + v
		}
	}
	// Chunk-granular addresses: price chunk t and parameter block Chunks+t
	// both cover perChunk consecutive cells at addr*perChunk.
	k.AddrSpan = epochal.BlockSpan(perChunk)
	return k
}

func init() {
	workloads.Register(workloads.Entry{
		Name: "BLACKSCHOLES", Suite: "Parsec", Function: "bs_thread", Plan: "Spec-DOALL",
		DomoreOK: true, SpecOK: false,
		Make: func(scale int) workloads.Instance { return New(scale) },
	})
}
