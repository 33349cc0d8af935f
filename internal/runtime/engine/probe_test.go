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
		if got := nextRead(c.done, c.inline, c.budget); got != c.want {
			t.Errorf("nextRead(%d, %v, %v) = %d, want %d", c.done, c.inline, c.budget, got, c.want)
		}
	}
}

// synthetic is a probe that has taken the given reads, as (units done,
// inline ns) pairs, with a clock read costing clock.
func synthetic(clock time.Duration, reads ...[2]int64) *Probe {
	p := &Probe{clock: clock, n: 1}
	for _, r := range reads {
		p.record(time.Duration(r[1]), r[0])
	}
	return p
}

// TestProbeRate pins the inline rate on synthetic reads: it spans from the
// latest read at or below half the units to the latest read, so the cold
// first units do not set it, and a last step the budget cut short still
// leaves it half the units; it is 0 before a unit has run; and it is
// trusted once that span lasts FloorReads clock reads.
func TestProbeRate(t *testing.T) {
	const clock = 10 // ns
	for _, c := range []struct {
		name    string
		reads   [][2]int64
		rate    float64
		trusted bool
	}{
		{"no unit run", nil, 0, false},
		{"a read before any unit", [][2]int64{{0, 50}}, 0, false},
		// A cold first unit of 1000 ns, then 100 ns a unit: the span is
		// 4 → 8, which leaves it out.
		{"doubling", [][2]int64{{1, 1000}, {2, 1100}, {4, 1300}, {8, 1700}}, 100, false},
		// Cut short at 10 after 8: the span is 4 → 10, not the one step
		// 8 → 10.
		{"cut short", [][2]int64{{1, 1000}, {2, 1100}, {4, 1300}, {8, 1700}, {10, 2100}}, 800.0 / 6, true},
		// A read exactly at half the units starts the span.
		{"at half", [][2]int64{{1, 100}, {2, 200}, {4, 400}}, 100, false},
		// The span 2 → 4 lasts 640 ns, FloorReads reads of 10 ns: trusted;
		// one ns less is not.
		{"floor", [][2]int64{{1, 100}, {2, 200}, {4, 840}}, 320, true},
		{"under the floor", [][2]int64{{1, 100}, {2, 200}, {4, 839}}, 319.5, false},
	} {
		p := synthetic(clock, c.reads...)
		if got := p.Rate(); got != c.rate {
			t.Errorf("%s: rate %v ns/unit, want %v", c.name, got, c.rate)
		}
		if got := p.Trusted(); got != c.trusted {
			t.Errorf("%s: trusted %v, want %v (FloorReads %d reads of %d ns)", c.name, got, c.trusted, FloorReads, clock)
		}
	}
}

// TestProbeKeepsItsLatestReads: a probe that has taken more reads than it
// keeps still rates from a read at or below half to the latest one, and
// allocates nothing.
func TestProbeKeepsItsLatestReads(t *testing.T) {
	p := synthetic(1)
	for i := int64(1); i <= 2*probeReads; i++ {
		p.record(time.Duration(100*i), i)
	}
	if got := p.Rate(); got != 100 {
		t.Errorf("rate %v ns/unit after %d reads, want 100", got, 2*probeReads)
	}
	if from, to := p.reads[p.from], p.reads[p.n-1]; to.done != 2*probeReads || 2*from.done > to.done {
		t.Errorf("span %d → %d units, want one from at most half to the latest read, %d", from.done, to.done, 2*probeReads)
	}
	var q Probe
	if n := testing.AllocsPerRun(10, func() {
		q.Start(time.Microsecond)
		for done := int64(1); done < 1<<12; done++ {
			if q.Due(done) && q.Read(done) {
				break
			}
		}
		q.Rate()
	}); n != 0 {
		t.Errorf("a probe allocated %v times, want none", n)
	}
}

// TestProbeSamplingIsNotInlineTime: time a guard reports as sampling is
// left out of the inline time; SampleDue holds while sampling, not the
// probe's own reads, has cost under 1/ProbeShare of it; and a read past the
// budget leaves no read due.
func TestProbeSamplingIsNotInlineTime(t *testing.T) {
	var p Probe
	p.Start(time.Hour)
	p.Sampled(time.Hour)
	if p.Read(1) || p.reads[p.n-1].inline > 0 {
		t.Fatalf("an hour of sampling read as %v of inline time", p.reads[p.n-1].inline)
	}
	if p.SampleDue() {
		t.Error("sampling due after it cost more than the inline time")
	}
	p.Start(time.Nanosecond)
	for time.Since(p.start) < time.Microsecond {
	}
	if !p.Read(1) {
		t.Fatal("a read a microsecond into a nanosecond budget did not pass it")
	}
	if p.Due(1 << 62) {
		t.Error("a read is due after the budget has passed")
	}
	if !p.SampleDue() {
		t.Error("sampling not due when nothing has been sampled")
	}
}
