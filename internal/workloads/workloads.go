// Package workloads hosts Go ports of the paper's evaluated benchmarks
// (Table 5.1). Each sub-package provides a deterministic synthetic instance
// of one program with the loop/dependence structure the paper describes,
// exposes the paper's sequential baseline, adapts the parallel region to
// the runtime engines that apply to it (Table 5.1's applicability columns).
package workloads

import "fmt"

// Instance is a constructed benchmark instance.
type Instance interface {
	// Name is the benchmark's display name (paper spelling).
	Name() string
	// RunSequential runs the region sequentially, mutating the state.
	RunSequential()
	// Checksum folds the final state for equivalence checks.
	Checksum() uint64
}

// Entry describes one benchmark in the registry (one row of Table 5.1).
type Entry struct {
	// Name and Suite match Table 5.1.
	Name  string
	Suite string
	// Function is the parallelized function.
	Function string
	// Plan is the inner-loop parallelization plan.
	Plan string
	// DomoreOK and SpecOK are the applicability columns.
	DomoreOK, SpecOK bool
	// Exact selects exact-set signatures for this benchmark (tasks with
	// large scattered read sets, like FLUIDANIMATE's grid rebuild, saturate
	// range and Bloom summaries); the default is the range scheme.
	Exact bool
	// Make constructs a deterministic instance; scale 1 is the default
	// evaluation size, larger scales grow the input.
	Make func(scale int) Instance
}

var registry []Entry

// Register adds a benchmark; called from sub-package init via Add.
func Register(e Entry) {
	registry = append(registry, e)
}

// All returns the registered benchmarks in registration order.
func All() []Entry { return registry }

// Find returns the entry with the given name.
func Find(name string) (Entry, error) {
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Mix64 is the shared deterministic value mixer the synthetic kernels use
// as their do_work analog: cheap, invertible-looking, and order-sensitive
// when folded through state.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Rng is a tiny splitmix64 generator for deterministic synthetic inputs.
type Rng struct{ s uint64 }

// NewRng seeds a generator.
func NewRng(seed uint64) *Rng { return &Rng{s: seed} }

// Next returns the next pseudo-random value.
func (r *Rng) Next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return Mix64(r.s)
}

// Intn returns a value in [0, n).
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("workloads: Intn(%d)", n))
	}
	return int(r.Next() % uint64(n))
}

// Perm returns a deterministic permutation of [0, n).
func (r *Rng) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FoldChecksum is a helper to fold int64 slices into a checksum.
func FoldChecksum(h uint64, data []int64) uint64 {
	for _, v := range data {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// Cells is the cell view of an instance's state, the image SPECCROSS
// checkpoints (speccross.Workload's StateLen, LoadCells and StoreCells).
type Cells interface {
	StateLen() int
	LoadCells(lo uint64, dst []int64)
	StoreCells(lo uint64, src []int64)
}

// Snapshot copies every cell of c's state. The registry instances keep
// Snapshot() any and Restore(any) methods only because the benchmark module
// (benchmark/engine.go) resets instances through them; each forwards here.
func Snapshot(c Cells) any {
	s := make([]int64, c.StateLen())
	c.LoadCells(0, s)
	return s
}

// Restore copies a Snapshot of c back over its state.
func Restore(c Cells, s any) { c.StoreCells(0, s.([]int64)) }
