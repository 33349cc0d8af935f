package engine

import (
	"math"
	"time"
)

// FloorReads sizes a guard's smallest probe budget, and the shortest span a
// probe trusts its inline rate over, in clock reads: one read then costs
// under 2 % of the span, so the clock does not decide. The budget floor
// applies until a phase posted on the runtime has measured its threads'
// start-up.
const FloorReads = 64

// ProbeShare caps exploring: past the samples it cannot decide without, a
// guard samples only while sampling has cost under 1/ProbeShare of the
// inline time (Probe.SampleDue), and a price test retries a verdict only
// once the winner has run ProbeShare times the loser's loss (Repaid).
const ProbeShare = 16

// probeReads is how many clock reads a Probe keeps: the reads double the
// units executed, so this covers far more units than any region has.
const probeReads = 64

// Probe is the inline measurement the engines' should-invoke guards decide
// from (domore.Run, speccross.Run): the test the MTCG exemplar's should_invoc
// makes, on measured time. The guard executes the region's units —
// DOMORE's iterations, SPECCROSS's tasks — in order on the calling thread
// and tells the probe how many it has done; the probe reads the clock on a
// schedule, keeps the guard's sampling and its own reads out of the inline
// time, and gives the inline rate. What a guard samples and how it decides are its own. The
// zero value is ready for Start, and a Probe never allocates.
type Probe struct {
	next    int64 // units executed at the next clock read; MaxInt64 once the budget has passed
	budget  time.Duration
	clock   time.Duration // one clock read
	start   time.Time
	sampled time.Duration // the guard's sampling so far, which is not inline time
	own     time.Duration // the probe's own reads so far, which are not either
	n       int           // reads kept
	from    int           // the rate's first read
	rate    float64       // the inline rate at the latest read (Rate)
	trusted bool          // and whether it is trusted (Trusted)
	reads   [probeReads]probeRead
}

// probeRead is one clock read: the inline time by then, and the units
// executed.
type probeRead struct {
	inline time.Duration
	done   int64
}

// Start begins a probe that may run for budget (Runtime.Budget): the clock
// reads zero now, and the first read is due after one unit.
func (p *Probe) Start(budget time.Duration) {
	p.next, p.budget, p.clock, p.sampled, p.own = 1, budget, clockCost(), 0, 0
	p.reads[0], p.n, p.from, p.rate, p.trusted = probeRead{}, 1, 0, 0, false
	p.start = time.Now()
}

// Due reports whether the clock is read once done units have run. It is the
// only test the guards make per unit.
func (p *Probe) Due(done int64) bool { return done >= p.next }

// Read reads the clock with done units run and reports whether the budget
// has passed. The next read is due after twice done units, so cheap bodies
// are not swamped by clock reads, cut short where the rate so far predicts
// the budget's end, so costly ones do not overshoot, and never less than one
// more; once the budget has passed none is due. A guard may also Read where
// it stops, for a rate up to there. Read's own time, like sampling, is not
// inline time: where memory accesses are costly (under the race detector,
// several times a short body) it would otherwise set the rate and use up
// the budget. So Read also works out the rate, which Rate and Trusted then
// only return.
func (p *Probe) Read(done int64) bool {
	now := time.Since(p.start)
	inline := now - p.sampled - p.own
	p.record(inline, done)
	past := inline >= p.budget
	if past {
		p.next = math.MaxInt64
	} else {
		p.next = nextRead(done, inline, p.budget)
	}
	p.own += time.Since(p.start) - now
	return past
}

// record keeps a read, over the latest one when every slot is taken, and
// sets the rate. The rate spans from the latest earlier read at or below
// half the units of this one to this one: the cold first units do not set
// it, and a last step the budget cut short still leaves it half the units
// run. (A full probe's span starts at an earlier read, still at or below
// half.) It is trusted when that span lasts FloorReads clock reads or more.
func (p *Probe) record(inline time.Duration, done int64) {
	if p.n == probeReads {
		p.n--
	}
	p.reads[p.n] = probeRead{inline, done}
	p.n++
	for p.from+2 < p.n && 2*p.reads[p.from+1].done <= done {
		p.from++
	}
	from := p.reads[p.from]
	p.rate, p.trusted = 0, p.Spans(inline-from.inline, FloorReads)
	if done > from.done {
		p.rate = float64(inline-from.inline) / float64(done-from.done)
	}
}

// nextRead is how many units have run at the probe's next clock read, given
// done ≥ 1 of them run in inline time (Read).
func nextRead(done int64, inline, budget time.Duration) int64 {
	step := done
	if inline > 0 {
		if left := int64(float64(budget-inline) * float64(done) / float64(inline)); left < step {
			step = max(left, 1)
		}
	}
	return done + step
}

// Sampled keeps d, time the guard spent sampling between reads, out of the
// inline time.
func (p *Probe) Sampled(d time.Duration) { p.sampled += d }

// SampleDue reports whether sampling so far has cost under 1/ProbeShare of
// the inline time at the latest read.
func (p *Probe) SampleDue() bool { return ProbeShare*p.sampled < p.reads[p.n-1].inline }

// Timed is a sample's measured time d less the clock read that ended it.
func (p *Probe) Timed(d time.Duration) time.Duration { return max(d-p.clock, 0) }

// Spans reports whether d lasts at least reads clock reads.
func (p *Probe) Spans(d time.Duration, reads int) bool { return d >= time.Duration(reads)*p.clock }

// Rate is the inline rate at the latest read, in ns per unit (record), or
// 0 before a unit has run.
func (p *Probe) Rate() float64 { return p.rate }

// Trusted reports whether the rate spans FloorReads clock reads or more.
func (p *Probe) Trusted() bool { return p.trusted }

// Repaid reports whether spent has reached ProbeShare times cost: the point
// past which a price test retries the verdict that cost it.
func Repaid(spent time.Duration, cost float64) bool { return float64(spent) >= ProbeShare*cost }
