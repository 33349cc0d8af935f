// Quickstart: parallelize a loop nest with cross-invocation dependences
// using the two runtime engines this library provides.
//
// The program is the paper's motivating shape (Fig 1.3): a timestep loop
// whose body runs two parallel inner loops, where iteration j of the second
// loop reads values the first loop wrote — dependences that a conventional
// parallelizer respects with a barrier after every invocation. DOMORE
// (Chapter 3) replaces the barrier with runtime scheduling; SPECCROSS
// (Chapter 4) replaces it with a speculative barrier. Both must produce the
// sequential result bit for bit.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
)

const (
	timesteps = 200
	width     = 64
)

// stencil holds the two arrays of Fig 1.3 and implements both engines'
// Workload interfaces over the same state.
type stencil struct {
	a []int64 // written by loop L1, read by L2
	b []int64 // written by loop L2, read by L1
}

func newStencil() *stencil {
	s := &stencil{a: make([]int64, width), b: make([]int64, width+1)}
	for i := range s.b {
		s.b[i] = int64(i)
	}
	return s
}

// iterL1 and iterL2 are the two inner-loop bodies.
func (s *stencil) iterL1(i int) { s.a[i] = s.b[i] + s.b[i+1]*3 }
func (s *stencil) iterL2(j int) { s.b[j+1] = s.a[j] % 1009 }

func (s *stencil) checksum() uint64 {
	h := uint64(1469598103934665603)
	for _, v := range append(append([]int64{}, s.a...), s.b...) {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// --- speccross.Workload: each inner-loop invocation is an epoch ---

func (s *stencil) Epochs() int         { return timesteps * 2 }
func (s *stencil) Tasks(epoch int) int { return width }

func (s *stencil) Run(epoch, task, tid int, sig *signature.Signature) {
	if epoch%2 == 0 {
		if sig != nil {
			sig.Read(uint64(width + task))
			sig.Read(uint64(width + task + 1))
			sig.Write(uint64(task))
		}
		s.iterL1(task)
	} else {
		if sig != nil {
			sig.Read(uint64(task))
			sig.Write(uint64(width + task + 1))
		}
		s.iterL2(task)
	}
}

// The state SPECCROSS checkpoints is a cell image: a's cells, then b's.
// A signature address above is the index of its cell, so the cell map is
// the identity.
func (s *stencil) StateLen() int { return len(s.a) + len(s.b) }

func (s *stencil) LoadCells(lo uint64, dst []int64) {
	for i := range dst {
		dst[i] = *s.cell(lo + uint64(i))
	}
}

func (s *stencil) StoreCells(lo uint64, src []int64) {
	for i, v := range src {
		*s.cell(lo + uint64(i)) = v
	}
}

func (s *stencil) cell(c uint64) *int64 {
	if c < width {
		return &s.a[c]
	}
	return &s.b[c-width]
}

func (s *stencil) CellMap() func(addr uint64) (lo, hi uint64) {
	return speccross.IdentityCells
}

// --- domore.Workload: same epochs, plus scheduler-side address slices ---

func (s *stencil) Invocations() int       { return timesteps * 2 }
func (s *stencil) Iterations(inv int) int { return width }
func (s *stencil) Sequential(inv int)     {}

func (s *stencil) ComputeAddr(inv, iter int, buf []uint64) []uint64 {
	if inv%2 == 0 {
		return append(buf, uint64(width+iter), uint64(width+iter+1), uint64(iter))
	}
	return append(buf, uint64(iter), uint64(width+iter+1))
}

func (s *stencil) Execute(inv, iter, tid int) {
	if inv%2 == 0 {
		s.iterL1(iter)
	} else {
		s.iterL2(iter)
	}
}

func main() {
	// 1. Sequential oracle.
	golden := newStencil()
	for t := 0; t < timesteps; t++ {
		for i := 0; i < width; i++ {
			golden.iterL1(i)
		}
		for j := 0; j < width; j++ {
			golden.iterL2(j)
		}
	}
	want := golden.checksum()
	fmt.Printf("sequential    checksum %016x\n", want)

	// 2. DOMORE: a scheduler thread detects dynamic dependences in shadow
	// memory and forwards synchronization conditions; iterations from
	// different invocations overlap unless they truly conflict.
	ds := newStencil()
	stats := domore.Run(ds, domore.Options{Workers: 4})
	fmt.Printf("domore        checksum %016x  (%d iterations, %d sync conditions, %d stalls)\n",
		ds.checksum(), stats.Iterations, stats.SyncConditions, stats.Stalls)
	if ds.checksum() != want {
		log.Fatal("DOMORE diverged from sequential")
	}

	// 3. SPECCROSS: profile the region to find the minimum dependence
	// distance, then speculate across the barriers with that range.
	prof := speccross.Profile(newStencil(), signature.Range, 8)
	dist, profitable := prof.Recommended(4)
	fmt.Printf("profile       min dependence distance %d (profitable with 4 workers: %v)\n",
		prof.MinDistance, profitable)

	ss := newStencil()
	spec := speccross.Run(ss, speccross.Config{
		Workers: 4, CheckpointEvery: 50, SpecDistance: dist,
	})
	fmt.Printf("speccross     checksum %016x  (%d tasks, %d epochs speculated, %d inline, %d misspeculations, %d checkpoints)\n",
		ss.checksum(), spec.Tasks, spec.Epochs, spec.Inline, spec.Misspeculations, spec.Checkpoints)
	if ss.checksum() != want {
		log.Fatal("SPECCROSS diverged from sequential")
	}

	fmt.Println("all strategies agree ✔")
}
