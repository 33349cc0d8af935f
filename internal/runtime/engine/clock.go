package engine

import (
	"sync"
	"time"
)

// This file holds what sizes a guard's Probe (probe.go): the cost of one
// clock read, and how long the runtime's threads last took to start a
// posted phase. A guard runs the region inline on the calling thread for
// about that long before it decides, since no thread of a parallel run
// would have begun sooner.

var (
	clockOnce sync.Once
	clockNs   time.Duration
)

// clockCost is the measured cost of one clock read on this machine, taken
// once per process.
func clockCost() time.Duration {
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
	return max(rt.startup, FloorReads*clockCost())
}
