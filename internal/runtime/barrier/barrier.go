// Package barrier implements the reusable non-speculative barrier that the
// paper's baseline parallelizations place between loop invocations
// (pthread_barrier_wait in Fig 1.3), plus instrumentation that measures how
// long each thread idles at the barrier — the quantity Fig 4.3 reports as
// "barrier overhead".
package barrier

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Barrier is a sense-reversing reusable barrier for a fixed set of
// participants. It may be reused for any number of phases.
type Barrier struct {
	parties int

	mu    sync.Mutex
	cond  *sync.Cond
	count int    // arrivals in the current phase
	phase uint64 // generation counter; changing it releases waiters
	// broken is set by Abort: a participant died, so no phase can complete.
	broken bool

	waitTime  atomic.Int64 // cumulative nanoseconds spent blocked, all threads
	waitCount atomic.Int64 // cumulative number of Wait calls
}

// New returns a barrier for the given number of participating threads.
func New(parties int) *Barrier {
	if parties <= 0 {
		panic(fmt.Sprintf("barrier: invalid party count %d", parties))
	}
	b := &Barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Parties reports the number of participants the barrier synchronizes.
func (b *Barrier) Parties() int { return b.parties }

// Wait blocks until all parties have called Wait for the current phase.
// It returns true for exactly one (arbitrary) caller per phase — the analog
// of PTHREAD_BARRIER_SERIAL_THREAD — which callers may use to run per-phase
// serial work.
func (b *Barrier) Wait() bool {
	start := time.Now()
	serial := b.wait()
	b.waitTime.Add(time.Since(start).Nanoseconds())
	b.waitCount.Add(1)
	return serial
}

func (b *Barrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return false
	}
	phase := b.phase
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return true
	}
	for phase == b.phase && !b.broken {
		b.cond.Wait()
	}
	return false
}

// Abort breaks the barrier for good: every blocked Wait and every later
// one returns false at once. The engine runtime calls it when a
// participant panicked, so the survivors are not left waiting for it.
func (b *Barrier) Abort() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Stats reports the cumulative time all threads have spent blocked in Wait
// and the total number of Wait calls. The idle time is the direct measure of
// the synchronization overhead the paper attributes to barriers (§2.3 cites
// up to 61% of runtime; Fig 4.3 measures ≥30% for these benchmarks).
func (b *Barrier) Stats() (idle time.Duration, waits int64) {
	return time.Duration(b.waitTime.Load()), b.waitCount.Load()
}

// Snapshot returns a new barrier for the same parties carrying the
// statistics accumulated so far: what a caller keeps when b itself goes on
// to serve someone else's run.
func (b *Barrier) Snapshot() *Barrier {
	c := New(b.parties)
	c.waitTime.Store(b.waitTime.Load())
	c.waitCount.Store(b.waitCount.Load())
	return c
}

// ResetStats zeroes the accumulated statistics.
func (b *Barrier) ResetStats() {
	b.waitTime.Store(0)
	b.waitCount.Store(0)
}
