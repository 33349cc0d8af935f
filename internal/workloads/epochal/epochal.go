// Package epochal provides the shared skeleton for benchmarks whose
// parallel region is a sequence of loop invocations (epochs) of independent
// tasks over a flat int64 state — the program shape of Fig 1.3/Fig 4.2.
// A Kernel describes the structure (epoch/task counts, per-task address
// sets and the update computation); the skeleton derives the sequential
// execution, checksum, and the speccross.Workload and domore.Workload
// adapters from it.
package epochal

import (
	"sync"

	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
)

// Kernel is a declaratively-described epochal benchmark instance.
type Kernel struct {
	// BenchName is the display name.
	BenchName string
	// State is the shared mutable state all tasks operate on.
	State []int64
	// NumEpochs is the number of invocations in the region.
	NumEpochs int
	// TasksOf reports the task count of an epoch.
	TasksOf func(epoch int) int
	// Access appends the task's read and write address sets to the given
	// buffers and returns them. Addresses are workload-defined (element or
	// block granular) but must be conservative: every cross-task conflict
	// must be visible in them. It must be safe to call concurrently.
	Access func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64)
	// Update applies the task's computation to State. Tasks within one
	// epoch must be independent (the inner loops are DOALL/LOCALWRITE
	// parallelized); Update must be safe to call concurrently for
	// different tasks of one epoch.
	Update func(epoch, task int)
	// TaskCost and SeqCost are read by nothing. They exist only because
	// the benchmark module (benchmark/engine.go) sets them on its phase
	// kernels.
	TaskCost func(epoch, task int) int64
	SeqCost  int64
	// AddrSpan, when set, maps a signature address from Access to the State
	// cell range [lo, hi) it covers: it is the kernel's CellMap, with which
	// SPECCROSS refreshes and rolls back only the cells the tracked write
	// set spans instead of copying the whole state. Use
	// speccross.IdentityCells for element-granular kernels whose addresses
	// are State indices. Nil declares no sound mapping (block- or
	// object-granular addresses with no fixed span): every checkpoint of
	// the kernel is then a whole copy.
	AddrSpan func(addr uint64) (lo, hi uint64)

	// bufs recycles the buffers Run and ComputeAddr hand to Access, which
	// every engine thread calls at once: without it each speculative task
	// and each scheduled iteration allocates its address sets.
	bufs sync.Pool // of *accessBufs
}

// accessBufs is one call's pair of Access buffers.
type accessBufs struct{ reads, writes []uint64 }

func (k *Kernel) getBufs() *accessBufs {
	if b, ok := k.bufs.Get().(*accessBufs); ok {
		return b
	}
	return new(accessBufs)
}

// IdentitySpan is speccross.IdentityCells, the AddrSpan of
// element-granular kernels, under the name the benchmark module uses.
var IdentitySpan = speccross.IdentityCells

// BlockSpan builds the AddrSpan of uniformly block-granular kernels:
// signature address a covers State cells [a·size, (a+1)·size).
func BlockSpan(size uint64) func(addr uint64) (lo, hi uint64) {
	return func(addr uint64) (lo, hi uint64) { return addr * size, (addr + 1) * size }
}

// Name implements workloads.Instance.
func (k *Kernel) Name() string { return k.BenchName }

// RunSequential implements workloads.Instance.
func (k *Kernel) RunSequential() {
	for e := 0; e < k.NumEpochs; e++ {
		n := k.TasksOf(e)
		for t := 0; t < n; t++ {
			k.Update(e, t)
		}
	}
}

// Checksum implements workloads.Instance.
func (k *Kernel) Checksum() uint64 {
	return workloads.FoldChecksum(1469598103934665603, k.State)
}

// --- speccross.Workload ---

// Epochs implements speccross.Workload.
func (k *Kernel) Epochs() int { return k.NumEpochs }

// Tasks implements speccross.Workload.
func (k *Kernel) Tasks(epoch int) int { return k.TasksOf(epoch) }

// Run implements speccross.Workload.
func (k *Kernel) Run(epoch, task, tid int, sig *signature.Signature) {
	if sig != nil {
		b := k.getBufs()
		b.reads, b.writes = k.Access(epoch, task, b.reads[:0], b.writes[:0])
		for _, a := range b.reads {
			sig.Read(a)
		}
		for _, a := range b.writes {
			sig.Write(a)
		}
		k.bufs.Put(b)
	}
	k.Update(epoch, task)
}

// StateLen implements speccross.Workload: the cells are State.
func (k *Kernel) StateLen() int { return len(k.State) }

// LoadCells implements speccross.Workload.
func (k *Kernel) LoadCells(lo uint64, dst []int64) { copy(dst, k.State[lo:]) }

// StoreCells implements speccross.Workload.
func (k *Kernel) StoreCells(lo uint64, src []int64) { copy(k.State[lo:], src) }

// CellMap implements speccross.Workload: AddrSpan, or nil.
func (k *Kernel) CellMap() func(addr uint64) (lo, hi uint64) { return k.AddrSpan }

// Snapshot and Restore exist for the benchmark module; see
// workloads.Snapshot.
func (k *Kernel) Snapshot() any { return workloads.Snapshot(k) }
func (k *Kernel) Restore(s any) { workloads.Restore(k, s) }

// --- domore.Workload ---

// Invocations implements domore.Workload.
func (k *Kernel) Invocations() int { return k.NumEpochs }

// Iterations implements domore.Workload.
func (k *Kernel) Iterations(inv int) int { return k.TasksOf(inv) }

// Sequential implements domore.Workload. The synthetic kernels precompute
// their bound data, so the scheduler has no serial work per invocation.
func (k *Kernel) Sequential(inv int) {}

// ComputeAddr implements domore.Workload: the scheduler needs the combined
// read∪write address set of the iteration (Algorithm 1 shadows every
// access).
func (k *Kernel) ComputeAddr(inv, iter int, buf []uint64) []uint64 {
	b := k.getBufs()
	reads, writes := k.Access(inv, iter, buf, b.writes[:0])
	b.writes = writes
	for _, w := range writes {
		dup := false
		for _, r := range reads {
			if r == w {
				dup = true
				break
			}
		}
		if !dup {
			reads = append(reads, w)
		}
	}
	k.bufs.Put(b)
	return reads
}

// Execute implements domore.Workload.
func (k *Kernel) Execute(inv, iter, tid int) { k.Update(inv, iter) }
