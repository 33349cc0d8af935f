package domore

import (
	"runtime"
	"sync"
	"sync/atomic"

	"crossinv/internal/runtime/shadow"
	"crossinv/internal/runtime/trace"
)

// RunStealing executes the workload under DOMORE with dynamic load
// balancing — the scheduling policy §3.3.3 plans as future work
// ("Integration of a work stealing scheduler similar to Cilk").
//
// The dedicated scheduler still detects dependences through shadow memory
// (Algorithm 1), but because the executing worker of an iteration is no
// longer known at scheduling time, synchronization conditions carry only
// dependence iteration numbers: shadow memory records the last accessing
// *iteration* per address, and a worker waits on per-iteration completion
// flags instead of the per-thread latestFinished watermark. Iterations are
// dealt into a shared pool that idle workers drain, so a straggler no
// longer delays the iterations queued behind it on a fixed thread — the
// load-balancing benefit Cilk-style stealing buys, combined with DOMORE's
// cross-invocation conditions (§4.5.4 explains why classic work stealing
// alone cannot cross barriers).
func RunStealing(w Workload, opts Options) Stats {
	opts.fill()
	nw := opts.Workers

	type task struct {
		inv, iter int
		iterNum   int64
		deps      []int64
	}
	tasks := make(chan task, opts.QueueCap)

	// Per-iteration completion flags, stored in a two-level table whose
	// outer layer is fixed-size: the scheduler installs a chunk before
	// publishing any task that references it (the channel send orders the
	// installation before the workers' loads), and workers never observe a
	// reallocating append.
	const chunkBits = 14
	const chunkSize = 1 << chunkBits
	const maxChunks = 1 << 16 // ≈10⁹ iterations
	table := make([][]atomic.Bool, maxChunks)
	flag := func(i int64) *atomic.Bool {
		return &table[i>>chunkBits][i&(chunkSize-1)]
	}

	var stats Stats
	var wg sync.WaitGroup
	for tid := 0; tid < nw; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			trace.Labeled("domore", "worker", func() {
				for t := range tasks {
					for _, d := range t.deps {
						if !flag(d).Load() {
							atomic.AddInt64(&stats.Stalls, 1)
							for spins := 0; !flag(d).Load(); spins++ {
								if spins > 16 {
									runtime.Gosched()
								}
							}
						}
					}
					w.Execute(t.inv, t.iter, tid)
					flag(t.iterNum).Store(true)
					atomic.AddInt64(&stats.Dispatches, 1)
				}
			})
		}(tid)
	}

	trace.Labeled("domore", "scheduler", func() {
		shadowMem := opts.Shadow
		if shadowMem == nil {
			shadowMem = shadow.NewSparse()
		}
		var deps []int64
		var buf []uint64
		iterNum := int64(0)
		invocations := w.Invocations()
		for inv := 0; inv < invocations; inv++ {
			w.Sequential(inv)
			iters := w.Iterations(inv)
			for it := 0; it < iters; it++ {
				buf = w.ComputeAddr(inv, it, buf[:0])
				addrs := buf
				deps = deps[:0]
				for _, a := range addrs {
					stats.AddrChecks++
					dep := shadowMem.Exchange(a, 0, iterNum)
					// Skip self-dependences: an iteration that lists an address
					// twice would otherwise wait on its own completion flag.
					if dep.Iter >= 0 && dep.Iter != iterNum {
						deps = appendDep(deps, dep.Iter)
					}
				}
				if chunk := iterNum >> chunkBits; table[chunk] == nil {
					table[chunk] = make([]atomic.Bool, chunkSize)
				}
				tasks <- task{inv: inv, iter: it, iterNum: iterNum, deps: append([]int64(nil), deps...)}
				stats.Iterations++
				stats.SyncConditions += int64(len(deps))
				iterNum++
			}
		}
		close(tasks)
	})
	wg.Wait()
	return stats
}

func appendDep(deps []int64, d int64) []int64 {
	for _, x := range deps {
		if x == d {
			return deps
		}
	}
	return append(deps, d)
}
