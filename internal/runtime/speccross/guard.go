package speccross

import (
	"runtime"
	"time"

	"crossinv/internal/runtime/engine"
)

// guard is what Run's probe measured and decided.
type guard struct {
	// at is the epoch the probe stopped at: every epoch before it has run.
	at int
	// parallel is the decision: speculation takes over at epoch at.
	parallel bool
	// inlineNs and specNs are the rates, in ns per task: the measured
	// inline one, and speculation's lower bound or, once the segment check
	// decided, a speculative segment's measured one.
	inlineNs, specNs float64
}

// sampleTasks is how many tasks of a sampled epoch run instrumented.
const sampleTasks = 16

// probeRead is one clock read of the probe: the inline time so far, less
// sampling, and the uninstrumented tasks executed by then.
type probeRead struct {
	at    time.Duration
	plain int64
}

// resumeSkipper is the seam of the chaos harness's resume-skip-epoch
// mutation. A workload whose ResumeSkipEpoch reports true gets a broken
// guard: the region resumes one epoch past where the probe stopped, inline
// or speculatively, so that epoch never runs. The harness must catch the
// lost epoch; nothing else implements this.
type resumeSkipper interface{ ResumeSkipEpoch() bool }

// probe executes the region's epochs in order on the calling thread from
// its first, task by task on worker 0 with no signature — the sequential
// execution, untracked, so it reports a state change to the runtime — and
// times them. It reads the clock after 1, 2, 4, … uninstrumented tasks,
// the step cut short where the rate so far predicts the budget's end
// (engine.NextRead). The inline rate is over the latest half of those
// tasks, so the cold first ones do not set it.
//
// The first sampleTasks tasks of the first two epochs, and of a later one
// while sampling has cost under 1/engine.ProbeShare of the inline time, run
// instead with a signature from worker 0's arena. That is still each
// task's one execution, since recording writes no state; its time is the
// instrumented rate. Once two epochs are sampled, the checker processes
// the signatures of the latest two in the state's own log, as if
// alternating workers had run them with every task of the earlier epoch
// still running when each of the later one began; that is the checker
// rate, and the log is emptied afterwards.
//
// The probe stops at the first epoch boundary past the budget where it has
// both rates and returns the decision Run's documentation gives; a region
// whose epochs all fit in the probe has run to its end, inline.
func (st *state) probe(w Workload, stats *Stats) guard {
	cfg := &st.cfg
	budget, clock := st.rt.Budget(), engine.ClockCost()
	nw := len(st.local)
	st.rt.StateChanged()
	st.useKind(cfg.SigKind)
	loc := &st.local[0]
	loc.taken = 0
	var (
		plain, next int64 = 0, 1 // uninstrumented tasks; the clock is read at next
		inline      time.Duration
		sampleWall  time.Duration // instrumented tasks and checker samples
		instr       time.Duration // the instrumented tasks' time, less a clock read each sample
		instrN      int
		check       time.Duration // the checker samples' time
		checkN      int
		sampled     int
		prev        int // the latest sampled epoch; entries holds its signatures
		past        bool
	)
	entries := st.sample[:0]
	reads := append(st.reads[:0], probeRead{})
	start := time.Now()
	epochs := w.Epochs()
	e := 0
	for e < epochs {
		n := w.Tasks(e)
		t := 0
		if k := min(n, sampleTasks); k > 0 && (sampled < 2 || engine.ProbeShare*sampleWall < inline) {
			t0 := time.Now()
			at := len(entries)
			for ; t < k; t++ {
				sig, wm := loc.take(cfg.SigKind, nw)
				w.Run(e, t, 0, sig)
				sig.Seal()
				entries = append(entries, taskEntry{tid: int32(t % nw), pos: packET(int32(e), int32(t)), wm: wm, sig: sig})
			}
			instr += max(time.Since(t0)-clock, 0)
			instrN += k
			if sampled++; sampled > 1 {
				check += st.checkSample(entries[:at], entries[at:], prev, e)
				checkN += k
				entries = append(entries[:0], entries[at:]...)
			}
			prev = e
			sampleWall += time.Since(t0)
		}
		for ; t < n; t++ {
			w.Run(e, t, 0, nil)
			plain++
			if past || plain < next {
				continue
			}
			inline = time.Since(start) - sampleWall
			reads = append(reads, probeRead{inline, plain})
			if past = inline >= budget; past {
				continue
			}
			next = engine.NextRead(plain, inline, budget)
		}
		stats.Tasks += int64(n)
		stats.InlineTasks += int64(n)
		e++
		if past && checkN > 0 {
			break
		}
	}
	g := guard{at: e}
	stats.Inline += int64(e)
	// The inline rate, from the latest read at or below half the tasks.
	now := time.Since(start) - sampleWall
	from := reads[0]
	for _, r := range reads {
		if 2*r.plain <= plain {
			from = r
		}
	}
	if plain > from.plain {
		g.inlineNs = float64(now-from.at) / float64(plain-from.plain)
	}
	if instrN > 0 && checkN > 0 {
		in, ck := float64(instr)/float64(instrN), float64(check)/float64(checkN)
		g.specNs = specBound(in, ck, nw, cfg.CheckerShards, runtime.GOMAXPROCS(0))
		g.parallel = e < epochs && g.specNs < g.inlineNs
	}
	st.sample, st.reads = entries[:0], reads[:0]
	loc.taken = 0
	return g
}

// specBound is the lower bound on speculation's ns per task, given the
// sampled ns per task of an instrumented body and of the checker: every
// task runs instrumented on one of the workers, is checked by one of the
// shards, and all of them share at most min(procs, workers+shards)
// processors.
func specBound(instr, check float64, workers, shards, procs int) float64 {
	return max(instr/float64(workers), check/float64(shards), (instr+check)/float64(min(procs, workers+shards)))
}

// checkSample times the checker over the signatures of two sampled epochs,
// a of epoch ea and b of the later eb, logged into the state's own checker
// as if alternating workers had run them and every task of ea was still
// running when each task of eb began. Only b is timed: each of its entries
// is logged and compared against a, as a speculative task is against the
// epochs it overlapped, while a's are only logged. It empties the log
// afterwards.
func (st *state) checkSample(a, b []taskEntry, ea, eb int) time.Duration {
	c := &st.chk
	c.reset(st.cfg.SigKind, ea, eb+1)
	wm := packET(int32(ea), 0)
	for _, es := range [][]taskEntry{a, b} {
		for i := range es {
			for o := range es[i].wm {
				es[i].wm[o] = wm
			}
		}
	}
	var loc shardLocal
	for i := range a {
		c.process(a[i], st, &loc, nil)
	}
	t0 := time.Now()
	for i := range b {
		c.process(b[i], st, &loc, nil)
	}
	d := time.Since(t0)
	c.reset(st.cfg.SigKind, 0, 0)
	return d
}
