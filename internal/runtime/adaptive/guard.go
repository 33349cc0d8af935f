package adaptive

import (
	"fmt"
	"time"

	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
)

// This file is Run's guard: the price test that decides whether the window
// the policy gave engine E is posted to E's workers or runs inline on the
// calling thread — the choice the MTCG exemplar's should_invoc makes per
// invocation, made here per window from measured cost per task.
//
// The prices are ns per task. E's is the wall time of its latest posted
// window, wake-up and quiesce included, over that window's tasks; inline's
// is the latest inline window's. While DOMORE or SPECCROSS is unpriced, its
// window goes through the engine's own guard, which measures both: one that
// posted anything prices E at its wall time per task, which blends in the
// inline part but lies on the same side of inline's price as E's own rate,
// and prices an unpriced inline at the guard's measured inline rate; one
// that ran wholly inline is an inline window priced at that rate, and
// prices E at the guard's estimate, a lower bound on E's cost, or leaves E
// unpriced when the guard has none. An unpriced barrier is posted. A
// priced E is posted when its price is below inline's, and otherwise its
// window runs inline. Each verdict is re-tried at a bounded share of what
// it costs: over a posted window of n tasks, E lost gap = (price(E) −
// price(inline))·n against inline when positive, and inline lost −gap
// against E when negative. A losing E is posted again once the inline
// windows since its last posted window have repaid engine.ProbeShare × gap
// (engine.Repaid), and a winning E's window runs inline again once E's
// windows since the last inline one have repaid engine.ProbeShare × −gap,
// so exploring costs at most 1/engine.ProbeShare of the run.

// prices is what the guard has measured so far.
type prices struct {
	inline float64             // the latest inline window's ns per task, or, before one, a guard's inline rate; 0: unpriced
	engine [NumEngines]float64 // each engine's latest posted window's ns per task, or its guard's estimate; 0: unpriced
	tasks  [NumEngines]int64   // and that window's tasks
	// inlined is the time of the inline windows since each engine's latest
	// posted window; posted is each engine's posted windows' time since the
	// latest inline window.
	inlined, posted [NumEngines]time.Duration
}

// post reports whether a window of engine e is posted rather than run
// inline.
func (p *prices) post(e Engine) bool {
	if p.engine[e] == 0 {
		return true
	}
	gap := (p.engine[e] - p.inline) * float64(p.tasks[e])
	if gap < 0 {
		return !engine.Repaid(p.posted[e], -gap)
	}
	return engine.Repaid(p.inlined[e], gap)
}

// ranInline records an inline window of the given tasks and time.
func (p *prices) ranInline(d time.Duration, tasks int64) {
	if tasks > 0 {
		p.inline = float64(d) / float64(tasks)
	}
	for e := range p.inlined {
		p.inlined[e] += d
		p.posted[e] = 0
	}
}

// ranPosted records a posted window of engine e.
func (p *prices) ranPosted(e Engine, d time.Duration, tasks int64) {
	if tasks > 0 {
		p.engine[e], p.tasks[e] = float64(d)/float64(tasks), tasks
	}
	p.inlined[e] = 0
	p.posted[e] += d
}

// ranGuarded records a window of engine e that e's own guard ran: of the
// given tasks and time, inline of them on the calling thread, with
// inlineNs the guard's measured inline ns per task and est its estimate of
// e's (0: none). Inline is priced at the guard's measured rate, not at the
// window's wall time, which carries the guard's sampling: so the next
// window's price test weighs the two rates the guard weighed. A window
// that posted anything sets it only while inline is unpriced.
func (p *prices) ranGuarded(e Engine, d time.Duration, tasks, inline int64, inlineNs, est float64) {
	if inline < tasks {
		p.ranPosted(e, d, tasks)
		if p.inline == 0 {
			p.inline = inlineNs
		}
		return
	}
	p.ranInline(d, tasks)
	if inlineNs > 0 {
		p.inline = inlineNs
	}
	if est > 0 {
		p.engine[e], p.tasks[e] = est, tasks
	}
}

// inlineSkipper is the seam of the chaos harness's inline-window-skip-epoch
// mutation. A workload whose InlineWindowSkipEpoch reports true gets a
// broken guard: every inline window starts one epoch late, so that epoch
// never runs. The harness must catch the lost epoch; nothing else
// implements this.
type inlineSkipper interface{ InlineWindowSkipEpoch() bool }

// inline runs epochs [lo, hi) of the window on the calling thread, in
// order, through engine e's sequential view — DOMORE's Sequential and
// Execute, or the epoch view's Run with no signature, which barrier and
// SPECCROSS share — untracked, so it reports a state change to the runtime
// after. It adds what it ran to s, the statistics, the trace and the
// prices.
func (c *controller) inline(e Engine, lo, hi int, s *Sample) {
	w := c.win.w
	if c.skip && lo < hi {
		lo++
	}
	var done int64 // tasks run
	start := time.Now()
	for at := lo; at < hi; at++ {
		var n int
		if e == EngineDomore {
			w.Sequential(at)
			n = w.Iterations(at)
			for it := 0; it < n; it++ {
				w.Execute(at, it, 0)
			}
		} else {
			n = w.Tasks(at)
			for t := 0; t < n; t++ {
				w.Run(at, t, 0, nil)
			}
		}
		done += int64(n)
	}
	d := time.Since(start)
	c.rt.StateChanged()

	var rate float64
	if done > 0 {
		rate = float64(d) / float64(done)
	}
	price := c.prices.engine[e]
	s.Tasks += done
	s.Inline += done
	if e == EngineDomore {
		addDomore(&c.stats.Domore, domore.Stats{Iterations: done, Inline: done, InlineNs: rate, SchedNs: price})
	} else {
		addSpec(&c.stats.Spec, speccross.Stats{Tasks: done, Inline: int64(hi - lo), InlineTasks: done, InlineNs: rate, SpecNs: price})
	}
	if done > 0 {
		c.ctl.Emit(trace.KindInline, done, int64(rate), int64(price))
	}
	c.prices.ranInline(d, done)
}

// inlineReason states why a window of engine e was not posted from its
// first epoch, given its sample and the prices or, when guard is set, the
// rates of e's own guard, which ran it.
func inlineReason(e Engine, s *Sample, guard bool, inlineNs, engineNs float64) string {
	switch {
	case guard && s.Inline < s.Tasks:
		cmp := "<"
		if engineNs >= inlineNs {
			cmp = "≥"
		}
		return fmt.Sprintf("%v guard: bound %.0f ns/task %s inline %.0f; %d of %d tasks ran inline, the rest posted",
			e, engineNs, cmp, inlineNs, s.Inline, s.Tasks)
	case guard && engineNs < inlineNs:
		return fmt.Sprintf("%v guard: bound %.0f ns/task < inline %.0f; window ran inline, ending within the probe", e, engineNs, inlineNs)
	case guard:
		return fmt.Sprintf("%v guard: bound %.0f ns/task ≥ inline %.0f; window ran inline", e, engineNs, inlineNs)
	case engineNs < inlineNs:
		return fmt.Sprintf("%v priced %.0f ns/task < inline %.0f, but its windows have taken %d× inline's loss; window ran inline to re-price it",
			e, engineNs, inlineNs, engine.ProbeShare)
	}
	return fmt.Sprintf("%v priced %.0f ns/task ≥ inline %.0f; window ran inline", e, engineNs, inlineNs)
}
