package speccross

import (
	"runtime"
	"time"
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

// resumeSkipper is the seam of the chaos harness's resume-skip-epoch
// mutation. A workload whose ResumeSkipEpoch reports true gets a broken
// guard: the region resumes one epoch past where the probe stopped, inline
// or speculatively, so that epoch never runs. The harness must catch the
// lost epoch; nothing else implements this.
type resumeSkipper interface{ ResumeSkipEpoch() bool }

// probe executes the region's epochs in order on the calling thread from
// its first, task by task on worker 0 with no signature — the sequential
// execution, untracked, so it reports a state change to the runtime — and
// times its uninstrumented tasks through the state's engine.Probe, which
// reads the clock on its schedule and gives the inline rate.
//
// The first sampleTasks tasks of the first two epochs, and of a later one
// while sampling is due (engine.Probe.SampleDue), run instead with a
// signature from worker 0's arena. That is still each task's one
// execution, since recording writes no state; its time is the instrumented
// rate. Once two epochs are sampled, the checker processes the signatures
// of the latest two in the state's own log, as if alternating workers had
// run them with every task of the earlier epoch still running when each of
// the later one began; that is the checker rate, and the log is emptied
// afterwards.
//
// The probe stops at the first epoch boundary past the budget where it has
// both rates and returns the decision Run's documentation gives; a region
// whose epochs all fit in the probe has run to its end, inline.
func (st *state) probe(w Workload, stats *Stats) guard {
	cfg, p := &st.cfg, &st.meter
	nw := len(st.local)
	st.rt.StateChanged()
	st.useKind(cfg.SigKind)
	loc := &st.local[0]
	loc.taken, loc.wmTaken = 0, 0
	wm := loc.takeWM(nw) // every sampled entry's: checkSample fills it
	var (
		plain   int64         // uninstrumented tasks
		instr   time.Duration // the instrumented tasks' time, less a clock read each sample
		instrN  int
		check   time.Duration // the checker samples' time
		checkN  int
		sampled int
		prev    int // the latest sampled epoch; entries holds its signatures
		past    bool
	)
	entries := st.sample[:0]
	p.Start(st.rt.Budget())
	epochs := w.Epochs()
	e := 0
	for e < epochs {
		n := w.Tasks(e)
		t := 0
		if k := min(n, sampleTasks); k > 0 && (sampled < 2 || p.SampleDue()) {
			t0 := time.Now()
			at := len(entries)
			for ; t < k; t++ {
				sig := loc.take(cfg.SigKind)
				w.Run(e, t, 0, sig)
				sig.Seal()
				entries = append(entries, taskEntry{tid: int32(t % nw), pos: packET(int32(e), int32(t)), wm: wm, sig: sig})
			}
			instr += p.Timed(time.Since(t0))
			instrN += k
			if sampled++; sampled > 1 {
				check += st.checkSample(entries[:at], entries[at:], prev, e)
				checkN += k
				entries = append(entries[:0], entries[at:]...)
			}
			prev = e
			p.Sampled(time.Since(t0))
		}
		for ; t < n; t++ {
			w.Run(e, t, 0, nil)
			plain++
			if p.Due(plain) {
				past = p.Read(plain)
			}
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
	p.Read(plain)
	g.inlineNs = p.Rate()
	if instrN > 0 && checkN > 0 {
		in, ck := float64(instr)/float64(instrN), float64(check)/float64(checkN)
		g.specNs = specBound(in, ck, nw, cfg.CheckerShards, runtime.GOMAXPROCS(0))
		g.parallel = e < epochs && g.specNs < g.inlineNs
	}
	st.sample = entries[:0]
	loc.taken, loc.wmTaken = 0, 0
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
// as if alternating workers had run them one task a chunk and every task of
// ea was still running when each task of eb began. Only b is timed: each of
// its entries is logged and compared against a, as a speculative task is
// against the epochs it overlapped, while a's are only logged. It empties
// the log afterwards.
func (st *state) checkSample(a, b []taskEntry, ea, eb int) time.Duration {
	c := &st.chk
	c.reset(st.cfg.SigKind, ea, eb+1)
	wm := a[0].wm // the probe's one vector, which every entry shares
	for o := range wm {
		wm[o] = packET(int32(ea), 0)
	}
	var loc shardLocal
	for i := range a {
		c.process(a[i:i+1], st, &loc, nil)
	}
	t0 := time.Now()
	for i := range b {
		c.process(b[i:i+1], st, &loc, nil)
	}
	d := time.Since(t0)
	c.reset(st.cfg.SigKind, 0, 0)
	return d
}
