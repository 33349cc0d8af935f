package domore

import (
	"time"

	"crossinv/internal/runtime/engine"
)

// position is a place in the region: invocation inv at its iteration it,
// whose global iteration number is iter. it > 0 means Sequential(inv) has
// run.
type position struct {
	inv, it int
	iter    int64
}

// guard is what Run's probe measured and decided.
type guard struct {
	// at is where the probe stopped: every iteration before it has run.
	at position
	// parallel is the decision: the worker phases are posted and the
	// scheduler takes over at at.
	parallel bool
	// inlineNs and schedNs are the measured rates, in ns per iteration.
	inlineNs, schedNs float64
}

// sampleReads is how long, in clock reads, the scheduler samples must have
// run before an early decision trusts their rate.
const sampleReads = 8

// probe executes the region on the calling thread, in order, from its
// start, and times it. It reads the clock after 1, 2, 4, … iterations, the
// step cut short where the rate so far predicts the budget's end
// (engine.NextRead).
// The inline rate is the one since the previous read: the latest half of
// the iterations probed, so the cold first ones do not set it.
//
// At the region's start, and at a clock read while sampling has cost under
// 1/engine.ProbeShare of the inline time, it dry-runs the scheduler's
// per-iteration work for the next iterations of the invocation (of the next
// one, at its end), after Sequential as the scheduler would: computeAddr
// and the exchange into the runtime's shadow store, reset afterwards. A
// sample is one untimed iteration, which warms the caches and the shadow
// store, then 1, 2, 4, … timed ones; the scheduler rate is over the timed
// ones of every sample.
//
// The decision is parallel when the scheduler rate is below the inline one.
// The scheduler thread does every iteration's address computation, so when
// that alone is not faster than executing the iteration, no worker count
// can win. The sampled rate leaves out the scheduler's Sequential,
// placement and queue work, and the inline rate keeps Sequential in, so the
// guard errs toward parallel. It decides parallel at the first clock read
// where the inline rate was measured over engine.FloorReads clock reads or
// more, the scheduler rate over sampleReads, and they say so; otherwise it
// decides at the first read past the budget (engine.Runtime.Budget),
// sampling there if it has no scheduler rate yet, and inline if no
// invocation so far had the two iterations a sample needs. An inline decision runs the region to its end
// on the calling thread with no more clock reads. A parallel decision posts
// the worker phases, and the probe goes on executing until the first worker
// has started, so the wake-up costs the region nothing; it then stops, and
// the scheduler takes over.
func (st *state) probe(budget time.Duration) guard {
	w, sm := st.w, st.shadow
	sm.Reset()
	defer sm.Reset()
	clock := engine.ClockCost()
	var (
		done, next int64 = 0, 1 // iterations executed; the clock is read at next
		sampleWall time.Duration
		sampleN    = 1
		sched      time.Duration // the timed sample iterations' time, less the clock reads
		schedN     int           // and their number
		inline     time.Duration // inline time at the latest clock read
		window     time.Duration // inline time since the read before
		windowN    int64         // and the iterations in it
		readAt     int64         // iterations done at the latest clock read
		decision   guard         // the decision, once decided
		decided    bool
	)
	buf := st.buf
	rates := func() guard {
		g := guard{}
		if windowN > 0 {
			g.inlineNs = float64(window) / float64(windowN)
		}
		if schedN > 0 {
			g.schedNs = float64(sched) / float64(schedN)
		}
		return g
	}
	addrs := func(inv, it int) {
		buf = w.ComputeAddr(inv, it, buf[:0])
		for _, a := range buf {
			sm.Exchange(a, 0, done+int64(it))
		}
	}
	// sample dry-runs the scheduler over iterations from on of invocation
	// inv, and reports whether there were any.
	sample := func(inv, from, iters int) bool {
		k := min(iters-from-1, sampleN)
		if k <= 0 {
			return false
		}
		t0 := time.Now()
		addrs(inv, from)
		t1 := time.Now()
		for it := from + 1; it <= from+k; it++ {
			addrs(inv, it)
		}
		d := time.Since(t1)
		sampleWall += d + t1.Sub(t0)
		sched += max(d-clock, 0)
		schedN += k
		sampleN *= 2
		return true
	}
	sampleDue := true
	start := time.Now()
	invocations := w.Invocations()
	for inv := 0; inv < invocations; inv++ {
		w.Sequential(inv)
		iters := w.Iterations(inv)
		if sampleDue && sample(inv, 0, iters) {
			sampleDue = false
		}
		for it := 0; it < iters; it++ {
			w.Execute(inv, it, 0)
			done++
			if decided {
				if decision.parallel && st.awake.Load() {
					st.buf = buf
					decision.at = position{inv: inv, it: it + 1, iter: done}
					if decision.at.it == iters {
						decision.at = position{inv: inv + 1, iter: done}
					}
					return decision
				}
				continue
			}
			if done < next {
				continue
			}
			now := time.Since(start) - sampleWall
			window, windowN, inline, readAt = now-inline, done-readAt, now, done
			if inline >= budget && schedN == 0 && !sample(inv, it+1, iters) {
				// Every invocation so far had one iteration at most, too
				// few to sample. With no scheduler rate to weigh, the
				// region stays inline rather than read the clock after
				// every iteration to its end.
				decision, decided = rates(), true
				continue
			}
			g := rates()
			trusted := window >= engine.FloorReads*clock && sched >= sampleReads*clock
			if schedN > 0 && (trusted || inline >= budget) {
				if g.parallel = g.schedNs < g.inlineNs; g.parallel {
					st.post()
				}
				if g.parallel || inline >= budget {
					decision, decided = g, true
					continue
				}
			}
			next = engine.NextRead(done, inline, budget)
			if sampleDue || engine.ProbeShare*sampleWall < inline {
				sampleDue = !sample(inv, it+1, iters)
			}
		}
	}
	st.buf = buf
	if !decided && done > 0 {
		window, windowN = time.Since(start)-sampleWall, done
		decision = rates()
	}
	decision.at = position{inv: invocations, iter: done}
	return decision
}
