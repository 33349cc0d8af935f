package domore

import (
	"runtime"
	"sync"
	"sync/atomic"

	"crossinv/internal/runtime/sched"
	"crossinv/internal/runtime/shadow"
	"crossinv/internal/runtime/trace"
)

// RunDuplicated executes the workload under the duplicated-scheduler variant
// of §3.4 (Figs 3.8–3.9): there is no dedicated scheduler thread. Every
// worker replays the scheduler code — the outer-loop sequential region,
// computeAddr, assignment, and shadow-memory bookkeeping — against a private
// shadow replica, and executes only the iterations assigned to itself. Since
// all replicas replay the identical deterministic schedule, every worker
// derives the same synchronization conditions; a worker assigned an
// iteration waits directly on latestFinished instead of consuming its own
// queue (semantically equivalent to Fig 3.9's produce-to-self).
//
// This trades redundant scheduling work for the absence of a scheduler
// thread, which is what allows DOMORE-parallelized loops to be nested inside
// a SPECCROSS region. The workload's Sequential code is executed by every
// worker and must therefore be duplication-safe (idempotent or
// thread-private), the constraint Fig 4.1 illustrates.
func RunDuplicated(w Workload, opts Options) Stats {
	opts.fill()
	if opts.NewPolicy == nil {
		opts.NewPolicy = func() sched.Policy { return sched.NewRoundRobin() }
	}
	nw := opts.Workers

	latestFinished := make([]paddedInt64, nw)
	for i := range latestFinished {
		latestFinished[i].v.Store(-1)
	}

	var stats Stats
	var wg sync.WaitGroup
	for tid := 0; tid < nw; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			// Each replica fuses scheduling and execution, so its lane is
			// "worker": there is no dedicated scheduler to attribute to.
			trace.Labeled("domore", "worker", func() {
				duplicatedWorker(w, &opts, tid, nw, latestFinished, &stats)
			})
		}(tid)
	}
	wg.Wait()

	// The replicas each counted the full schedule; normalize the
	// scheduler-side counters to per-schedule values.
	stats.Iterations /= int64(nw)
	stats.AddrChecks /= int64(nw)
	stats.SyncConditions /= int64(nw)
	return stats
}

// duplicatedWorker is Fig 3.9's scheduler()+worker() fused loop, run by each
// worker against a private shadow replica and policy instance.
func duplicatedWorker(w Workload, opts *Options, tid, nw int, latestFinished []paddedInt64, stats *Stats) {
	shadowMem := shadow.NewSparse()
	policy := opts.NewPolicy()
	owner, multiOwner := policy.(*sched.LocalWrite)

	deps := make([]cond, 0, 8)
	var buf []uint64
	iterNum := int64(0)
	invocations := w.Invocations()
	for inv := 0; inv < invocations; inv++ {
		w.Sequential(inv)
		iters := w.Iterations(inv)
		for it := 0; it < iters; it++ {
			buf = w.ComputeAddr(inv, it, buf[:0])
			addrs := buf
			tids := policy.Assign(iterNum, addrs, nw)
			mine := false
			deps = deps[:0]
			for _, a := range addrs {
				accessor := int32(tids[0])
				if multiOwner && len(tids) > 1 {
					accessor = int32(owner.Owner(a, nw))
				}
				dep := shadowMem.Exchange(a, accessor, iterNum)
				if dep.Iter != shadow.None && dep.Tid != accessor && accessor == int32(tid) {
					deps = addDep(deps, dep.Tid, dep.Iter)
				}
			}
			for _, t := range tids {
				if t == tid {
					mine = true
				}
			}
			atomic.AddInt64(&stats.AddrChecks, int64(len(addrs)))
			atomic.AddInt64(&stats.Iterations, 1)
			atomic.AddInt64(&stats.SyncConditions, int64(len(deps)))
			if mine {
				for _, d := range deps {
					if latestFinished[d.Tid].v.Load() < d.Iter {
						atomic.AddInt64(&stats.Stalls, 1)
						for spins := 0; latestFinished[d.Tid].v.Load() < d.Iter; spins++ {
							if spins > 16 {
								runtime.Gosched()
							}
						}
					}
				}
				w.Execute(inv, it, tid)
				latestFinished[tid].v.Store(iterNum)
				atomic.AddInt64(&stats.Dispatches, 1)
			}
			iterNum++
		}
	}
}
