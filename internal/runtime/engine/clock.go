package engine

import (
	"sync"
	"time"
)

// This file holds what the engines' should-invoke guards (domore.Run,
// speccross.Run) measure with: the cost of one clock read, and how long the
// runtime's threads last took to start a posted phase. A guard runs the
// region inline on the calling thread for about that long before it
// decides, since no thread of a parallel run would have begun sooner.

// FloorReads sizes a guard's smallest probe budget, and the shortest
// interval a guard trusts a measured rate from, in clock reads: one read
// then costs under 2 % of the interval, so the clock does not decide. The
// budget floor applies until a phase posted on the runtime has measured
// its threads' start-up.
const FloorReads = 64

// ProbeShare caps a guard's sampling: past the samples it cannot decide
// without, a guard samples only while sampling has cost under 1/ProbeShare
// of the inline time.
const ProbeShare = 16

var (
	clockOnce sync.Once
	clockNs   time.Duration
)

// ClockCost is the measured cost of one clock read on this machine, taken
// once per process.
func ClockCost() time.Duration {
	clockOnce.Do(func() {
		const n = 256
		t0 := time.Now()
		for range n {
			time.Now()
		}
		clockNs = max(time.Since(t0)/n, 1)
	})
	return clockNs
}

// Startup reports how long the phases last posted on the runtime took to
// start: from the first post of the batch to the first of its threads
// beginning its phase. It is zero until a batch has been waited for.
func (rt *Runtime) Startup() time.Duration { return rt.startup }

// Budget is how long a guard's inline probe may run before it decides: the
// runtime's Startup, and never below FloorReads clock reads.
func (rt *Runtime) Budget() time.Duration {
	return max(rt.startup, FloorReads*ClockCost())
}

// NextRead is how many units a guard's probe has executed at its next clock
// read, given done ≥ 1 units executed in inline time by this one: twice
// done, so cheap bodies are not swamped by clock reads, cut short where the
// rate so far predicts the budget's end, so costly ones do not overshoot,
// and never less than one more.
func NextRead(done int64, inline, budget time.Duration) int64 {
	step := done
	if inline > 0 {
		if left := int64(float64(budget-inline) * float64(done) / float64(inline)); left < step {
			step = max(left, 1)
		}
	}
	return done + step
}
