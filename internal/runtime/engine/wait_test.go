package engine

import "testing"

// TestPauseSchedule pins the wait schedule attempt by attempt: busy-spin on
// attempts 0–3, yield at the powers of two from 4 to 128, then yield on
// every attempt from 256 on. Every engine wait degrades on this schedule,
// and GOMAXPROCS=1 progress depends on its early first yield and its
// yielding steady state.
func TestPauseSchedule(t *testing.T) {
	sparse := map[int]bool{4: true, 8: true, 16: true, 32: true, 64: true, 128: true}
	for attempt := 0; attempt <= 600; attempt++ {
		want := sparse[attempt] || attempt >= 256
		if got := yields(attempt); got != want {
			t.Errorf("attempt %d: yields = %v, want %v", attempt, got, want)
		}
	}
}

// TestPauseOnStoppedRuntimeReturnsWithinOneAttempt: a wait on a runtime
// whose stop word is raised gives up on its first slow-path attempt, and
// waits on a running runtime go on.
func TestPauseOnStoppedRuntimeReturnsWithinOneAttempt(t *testing.T) {
	rt := New(1)
	for attempt := 0; attempt < 300; attempt++ {
		if !rt.Pause(attempt) {
			t.Fatalf("Pause(%d) gave up on a running runtime", attempt)
		}
	}
	rt.Close()
	attempts := 0
	for spins := 0; spins < 600; spins++ {
		attempts++
		if !rt.Pause(spins) {
			break
		}
	}
	if attempts != 1 {
		t.Errorf("wait on a stopped runtime took %d attempts, want 1", attempts)
	}
}
