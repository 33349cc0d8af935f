package engine

import (
	"runtime"
	"sync/atomic"
)

// This file is the one way a runtime's threads wait. Every engine wait — a
// DOMORE worker stalled on ⟨depTid, depIterNum⟩, a producer on a full ring,
// a consumer on an empty one, a scheduler lane on its next chunk, the
// SPECCROSS range gate and checker drain, an idle thread, the control
// goroutine in Wait — is a loop that tests its own exit condition and calls
// Pause after each failed attempt. The schedule and the stop word therefore
// live here and nowhere else (the one-wait lint rule keeps it so).

// The wait schedule: attempts below busySpins busy-spin; from there to
// yieldCap the waiter yields at power-of-two attempts (exponentially
// spaced); past the cap every attempt yields.
const (
	busySpins = 4
	yieldCap  = 1 << 8
)

// yields reports whether failed attempt number attempt gives up the
// processor. The first few attempts busy-spin — cheap when the peer runs on
// another core and the wait is ephemeral. Under GOMAXPROCS=1 a wait ends
// only once the waiter yields, so the first yield comes early and the steady
// state yields on every attempt rather than burn the peer's only processor.
func yields(attempt int) bool {
	if attempt < busySpins {
		return false
	}
	return attempt >= yieldCap || attempt&(attempt-1) == 0
}

// Pause is one failed attempt of a wait on rt, given the number of failed
// attempts before it. It reports false at once, without waiting, if the
// runtime's stop word is raised — a runtime thread panicked or the runtime
// is closing — and the caller must abandon its wait: a runtime thread
// returns from its phase, the control goroutine calls Wait, which re-raises.
// Otherwise it busy-spins or yields the processor on the wait schedule and
// reports true. It is safe to call from any thread.
func (rt *Runtime) Pause(attempt int) bool {
	if rt.stop.Load() {
		return false
	}
	if yields(attempt) {
		runtime.Gosched()
	}
	return true
}

// parker is the parking half of the two waits that can last indefinitely: an
// idle thread waiting for its next phase and the control goroutine waiting
// in Wait for the phases to drain.
type parker struct {
	parked atomic.Bool
	wake   chan struct{}
}

func newParker() parker { return parker{wake: make(chan struct{}, 1)} }

// await returns once ready reports true. It pauses for up to spins
// attempts — none while the runtime sits idle in the pool or has stopped —
// and then parks until the goroutine that makes ready true calls unpark.
// Whoever wins the parked flag decides: unpark sends a wake-up, or the
// waiter saw ready itself and needs none.
func (p *parker) await(rt *Runtime, spins int, ready func() bool) {
	for attempt := 0; !ready(); attempt++ {
		if attempt < spins && !rt.idle.Load() && rt.Pause(attempt) {
			continue
		}
		p.parked.Store(true)
		if ready() && p.parked.CompareAndSwap(true, false) {
			return
		}
		<-p.wake
	}
}

// unpark wakes the waiter if it parked. Call it after making ready true.
func (p *parker) unpark() {
	if p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}
