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
	// cell range [lo, hi) it covers, enabling incremental checkpoints
	// (speccross.DeltaWorkload): the engine refreshes and rolls back only
	// the cells the tracked write set spans instead of copying the whole
	// state. Use IdentitySpan for element-granular kernels whose addresses
	// are State indices. Nil declares no sound mapping (block- or
	// object-granular addresses with no fixed span), keeping the kernel on
	// full snapshots.
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

// IdentitySpan is the AddrSpan of element-granular kernels: signature
// address a covers exactly State cell a.
func IdentitySpan(addr uint64) (lo, hi uint64) { return addr, addr + 1 }

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

// Snapshot implements speccross.Workload.
func (k *Kernel) Snapshot() any {
	cp := make([]int64, len(k.State))
	copy(cp, k.State)
	return cp
}

// Restore implements speccross.Workload.
func (k *Kernel) Restore(s any) { copy(k.State, s.([]int64)) }

// StateLen implements speccross.DeltaWorkload; 0 (no AddrSpan declared)
// keeps the kernel on full snapshots.
func (k *Kernel) StateLen() int {
	if k.AddrSpan == nil {
		return 0
	}
	return len(k.State)
}

// LoadCells implements speccross.DeltaWorkload.
func (k *Kernel) LoadCells(lo uint64, dst []int64) { copy(dst, k.State[lo:]) }

// StoreCells implements speccross.DeltaWorkload.
func (k *Kernel) StoreCells(lo uint64, src []int64) { copy(k.State[lo:], src) }

// AddrCells implements speccross.DeltaWorkload.
func (k *Kernel) AddrCells(addr uint64) (lo, hi uint64) { return k.AddrSpan(addr) }

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
