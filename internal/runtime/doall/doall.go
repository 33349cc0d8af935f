// Package doall implements the intra-invocation parallelization baselines
// from Chapter 2 of the paper: DOALL, DOANY (lock-protected commutative
// operations), and LOCALWRITE (owner-computes with redundant traversal).
// These are the techniques the paper's evaluation pairs with pthread-style
// barriers between invocations; DOMORE and SPECCROSS are measured against
// them.
package doall

import (
	"fmt"
	"sync"

	"crossinv/internal/runtime/barrier"
	"crossinv/internal/runtime/sched"
)

// Loop describes one parallelizable inner-loop invocation of N iterations.
type Loop struct {
	// N is the iteration count.
	N int
	// Body executes iteration i on worker tid.
	Body func(i, tid int)
}

// Run executes a sequence of loop invocations with the classic plan the
// paper's Figure 1.3 shows: each invocation's iterations are split across
// workers by the given assignment, and a barrier separates consecutive
// invocations. Between invocations, the optional serial function runs on the
// barrier's serial thread (the sequential region between parallel loops).
//
// invocations yields the loop for invocation k, or ok=false when done; it is
// called once per invocation on the serial thread.
func Run(workers int, invocations func(k int) (Loop, bool), serial func(k int)) *barrier.Barrier {
	if workers <= 0 {
		panic(fmt.Sprintf("doall: invalid worker count %d", workers))
	}
	bar := barrier.New(workers)

	// The invocation sequence must be materialized identically on every
	// worker; the serial thread fetches it and publishes via this slot.
	type slot struct {
		loop Loop
		ok   bool
	}
	var cur slot

	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if bar.Wait() { // serial thread fetches the next invocation
					if serial != nil {
						serial(k)
					}
					cur.loop, cur.ok = invocations(k)
				}
				bar.Wait() // publish barrier: all see cur
				if !cur.ok {
					return
				}
				loop := cur.loop
				for i := tid; i < loop.N; i += workers {
					loop.Body(i, tid)
				}
				bar.Wait() // end-of-invocation barrier (the paper's bottleneck)
			}
		}(tid)
	}
	wg.Wait()
	return bar
}

// RunDOANY executes one loop invocation where cross-iteration dependences
// are commutative operations protected by locks (§2.2, Fig 2.3(b)). lockIDs
// returns the indices of the locks iteration i must hold; locks are acquired
// in ascending index order to avoid deadlock.
func RunDOANY(workers int, loop Loop, lockIDs func(i int) []int, locks []sync.Mutex) {
	if workers <= 0 {
		panic(fmt.Sprintf("doall: invalid worker count %d", workers))
	}
	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := tid; i < loop.N; i += workers {
				ids := lockIDs(i)
				for _, id := range ids {
					locks[id].Lock()
				}
				loop.Body(i, tid)
				for j := len(ids) - 1; j >= 0; j-- {
					locks[ids[j]].Unlock()
				}
			}
		}(tid)
	}
	wg.Wait()
}

// RunLOCALWRITE executes one loop invocation under the owner-computes rule
// (§2.2, Fig 2.3(c)): every worker traverses all iterations (the redundant
// computation the paper charges against LOCALWRITE), and the body receives
// an owns predicate so it performs only the updates owned by the executing
// worker.
//
// owner maps the address an update targets to its owning worker, using the
// supplied chunked partition.
func RunLOCALWRITE(workers int, n int, partition *sched.LocalWrite, body func(i, tid int, owns func(addr uint64) bool)) {
	if workers <= 0 {
		panic(fmt.Sprintf("doall: invalid worker count %d", workers))
	}
	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			owns := func(addr uint64) bool { return partition.Owner(addr, workers) == tid }
			for i := 0; i < n; i++ { // every worker walks every iteration
				body(i, tid, owns)
			}
		}(tid)
	}
	wg.Wait()
}
