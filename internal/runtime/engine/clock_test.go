package engine

import (
	"testing"
	"time"
)

// TestNextRead pins the guards' clock-read schedule: the step doubles what
// has run while the budget is far, is cut to what the rate so far says is
// left of it, and is never below one.
func TestNextRead(t *testing.T) {
	const us = time.Microsecond
	for _, c := range []struct {
		done           int64
		inline, budget time.Duration
		want           int64
	}{
		{1, 0, 100 * us, 2},              // an unmeasurable unit doubles
		{8, 1 * us, 100 * us, 16},        // far from the budget: doubles
		{8, 80 * us, 100 * us, 10},       // 10 µs a unit, 20 µs left: 2 more
		{8, 99 * us, 100 * us, 9},        // under a unit left: one more
		{8, 120 * us, 100 * us, 9},       // past the budget: one more
		{1 << 20, us, us << 20, 1 << 21}, // large counts double too
	} {
		if got := NextRead(c.done, c.inline, c.budget); got != c.want {
			t.Errorf("NextRead(%d, %v, %v) = %d, want %d", c.done, c.inline, c.budget, got, c.want)
		}
	}
}
