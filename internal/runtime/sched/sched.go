// Package sched provides the iteration-scheduling policies the DOMORE
// scheduler chooses among (§3.3.3): round-robin and LOCALWRITE-style memory
// partitioning.
package sched

// Policy decides which worker thread(s) execute a given iteration.
//
// Assign receives the combined (cross-invocation) iteration number, the
// addresses the iteration will access (as computed by computeAddr), and the
// worker count; it returns the thread IDs that must run the iteration.
// Round-robin returns exactly one tid; LOCALWRITE may return several when an
// iteration touches memory owned by multiple threads (§3.3.3: "If multiple
// threads own the memory locations, that iteration is scheduled to all of
// them").
type Policy interface {
	Assign(iterNum int64, addrs []uint64, workers int) []int
	// Name identifies the policy in reports and benchmarks.
	Name() string
}

// RoundRobin assigns iteration i to worker i mod workers — the default
// policy used by most of the paper's parallelizations.
type RoundRobin struct {
	// scratch avoids a per-call allocation; Assign results must be consumed
	// before the next call, which matches the scheduler's usage.
	scratch [1]int
}

// NewRoundRobin returns a round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Assign implements Policy.
func (r *RoundRobin) Assign(iterNum int64, _ []uint64, workers int) []int {
	r.scratch[0] = int(iterNum % int64(workers))
	return r.scratch[:]
}

// Name implements Policy.
func (r *RoundRobin) Name() string { return "round-robin" }

// LocalWrite partitions the address space into equal chunks, one per worker,
// and schedules each iteration to the owner(s) of the addresses it touches
// (the LOCALWRITE owner-computes rule, §2.2 and §3.3.3). Iterations that
// touch no shadowed address fall back to round-robin so work stays balanced.
type LocalWrite struct {
	// AddrSpace is the exclusive upper bound of the address space being
	// partitioned. Must be positive.
	AddrSpace uint64

	scratch []int
	seen    map[int]bool
}

// NewLocalWrite returns a LOCALWRITE policy over [0, addrSpace).
func NewLocalWrite(addrSpace uint64) *LocalWrite {
	if addrSpace == 0 {
		panic("sched: LOCALWRITE needs a positive address space")
	}
	return &LocalWrite{AddrSpace: addrSpace, seen: make(map[int]bool)}
}

// Owner returns the worker owning addr under the chunked partition.
func (l *LocalWrite) Owner(addr uint64, workers int) int {
	if addr >= l.AddrSpace {
		addr = l.AddrSpace - 1
	}
	chunk := (l.AddrSpace + uint64(workers) - 1) / uint64(workers)
	return int(addr / chunk)
}

// Assign implements Policy.
func (l *LocalWrite) Assign(iterNum int64, addrs []uint64, workers int) []int {
	l.scratch = l.scratch[:0]
	if len(addrs) == 0 {
		return append(l.scratch, int(iterNum%int64(workers)))
	}
	clear(l.seen)
	for _, a := range addrs {
		o := l.Owner(a, workers)
		if !l.seen[o] {
			l.seen[o] = true
			l.scratch = append(l.scratch, o)
		}
	}
	return l.scratch
}

// Name implements Policy.
func (l *LocalWrite) Name() string { return "localwrite" }
