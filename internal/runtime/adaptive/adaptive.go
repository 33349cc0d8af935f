// Package adaptive is the hybrid runtime: it executes an
// invocation-structured code region window by window, monitors live
// conflict and misspeculation signals, and switches execution engines —
// barrier, DOMORE, or SPECCROSS — at window boundaries.
//
// The paper's central empirical finding is a crossover (§5, Fig 5.4):
// DOMORE wins when cross-invocation dependences manifest frequently (CG's
// 72.4% manifest rate, ECLAT's 99%), SPECCROSS wins when they are rare.
// The static engines require that choice to be baked in at the call site;
// this package takes the paper's title one step further and uses runtime
// information to pick the runtime itself. Windows of W epochs run under
// the current engine; DOMORE windows report the manifest-dependence rate
// (iterations with a dependence, from the scheduler of Algorithm 1),
// SPECCROSS windows report misspeculations and checker pressure (from
// the Chapter 4 Stats); ThresholdPolicy's hysteresis rule picks the
// engine for the next window (a seed may pin one engine with Fixed).
// Switches pay the documented quiesce cost: a drain barrier when leaving
// DOMORE, a checkpoint barrier when leaving SPECCROSS (both fall out of
// the quiesce every window boundary performs: the engines of all windows
// run on one engine.Runtime, whose threads drain their mailboxes there,
// so a switch hands the same threads a different loop).
//
// Run is guarded, as domore.Run and speccross.Run are: a window whose
// DOMORE or SPECCROSS engine has no price yet goes through that engine's own
// guard, which goes parallel where its probe stopped or finishes the window
// on the calling thread; an unpriced barrier, which has no guard, is
// posted; a window whose engine has cost more per task than inline
// execution runs on the calling thread instead, and is re-priced at a
// bounded share of the run (guard.go). RunOn and RunParallel post every
// window.
package adaptive

import (
	"fmt"
	"time"

	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
)

// Workload is a code region executable under every engine: one workload
// definition providing both the DOMORE view (invocations of iterations
// with redundantly computable address sets, §3.3.4) and the SPECCROSS
// view (epochs of independent tasks with checkpointable state, §4.2).
// Invocations and epochs must describe the same structure:
// Invocations() == Epochs() and Iterations(i) == Tasks(i) for every i.
//
// The epochal.Kernel skeleton and the benchmark adapters satisfy both
// halves.
type Workload interface {
	domore.Workload
	speccross.Workload
}

// Config tunes an adaptive execution.
type Config struct {
	// Workers is the worker thread count handed to every engine (each
	// engine adds its own scheduler/checker threads as usual).
	Workers int
	// Window is the number of epochs per monitoring window (default
	// DefaultWindow).
	Window int
	// Policy picks the engine for each next window (default a fresh
	// ThresholdPolicy).
	Policy Policy
	// Start is the engine of the first window (default EngineDomore: it is
	// non-speculative and measures the manifest rate directly, so it is
	// the safe probe when nothing is known yet). Under Run, a DOMORE or
	// SPECCROSS start goes through that engine's guard, and a barrier start
	// is posted.
	Start Engine
	// Domore is the DOMORE options template. Workers is overridden per
	// window. The engine clears its shadow store for each DOMORE window
	// (iteration numbering restarts per window, and every dependence into an
	// earlier window is already satisfied by the window-boundary quiesce, so
	// carrying shadow state across windows would manufacture waits on
	// iterations that never re-execute).
	Domore domore.Options
	// Spec is the SPECCROSS config template. Workers and CheckpointEvery
	// are overridden per window (each window is one checkpoint segment, so
	// a misspeculating window rolls back exactly to its own start).
	Spec speccross.Config
	// Trace, when non-nil, is shared by the controller and every engine
	// window: the controller emits window-begin, engine-switch and inline
	// events on trace.LaneControl (one inline event per window with inline
	// tasks, naming them: an engine guard run in a window emits none of its
	// own), and each window's engine emits its usual stream (lanes persist
	// across windows; the boundary quiesce makes the handoff safe). The
	// per-window monitor Sample comes from engine Stats whether or not
	// tracing is on.
	Trace *trace.Recorder
	// SpanParent, when nonzero, parents each window's request span under
	// an enclosing span — the daemon passes its execute span's id so the
	// invocation's span tree shows every window.
	SpanParent int64
	// OnDecision, when non-nil, observes every window-boundary decision
	// synchronously from the controller goroutine — the audit hook the
	// daemon journals into /debug/decisions. It must be fast; engine
	// threads are quiescent while it runs.
	OnDecision func(Decision)
	// SeedSource records how Start/Policy were primed (set by
	// SeedFromFacts/SeedFromProfile, overridable by callers replaying a
	// cached seed); it is copied into every Decision for provenance.
	SeedSource string
}

// DefaultWindow is the monitoring window, in epochs, of a Config that sets
// none.
const DefaultWindow = 32

func (c *Config) fill() {
	if c.Workers <= 0 {
		panic(fmt.Sprintf("adaptive: invalid worker count %d", c.Workers))
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Policy == nil {
		c.Policy = &ThresholdPolicy{}
	}
}

// Stats reports what the adaptive controller and its engines observed.
type Stats struct {
	// Windows is the number of windows executed.
	Windows int
	// Switches counts engine changes at window boundaries.
	Switches int
	// EngineWindows counts windows executed per engine, indexed by Engine.
	EngineWindows [NumEngines]int
	// Domore aggregates the DOMORE windows' statistics. Inline counts the
	// iterations DOMORE windows ran on the calling thread, and InlineNs and
	// SchedNs are the latest such window's inline rate and DOMORE's price.
	Domore domore.Stats
	// Spec aggregates the SPECCROSS windows' statistics and what barrier
	// and SPECCROSS windows ran inline, through the epoch view: Inline
	// counts those epochs and InlineTasks their tasks (which are in Tasks
	// too), and InlineNs and SpecNs are the latest such window's inline
	// rate and its engine's price.
	Spec speccross.Stats
	// Samples is the per-window monitor log, in execution order.
	Samples []Sample
}

// Run executes the workload under the adaptive controller and returns the
// combined statistics. It is guarded, as domore.Run and speccross.Run are:
// the policy names each window's engine E, and guard.go's rule then decides
// how E's window runs. While DOMORE or SPECCROSS is unpriced, its window
// goes through that engine's own guard (domore.RunGuardedOn,
// speccross.RunGuardedOn) on the controller's runtime and window view, so
// the first window of a region, and the first after a switch to an engine
// that has not run yet, costs what domore.Run or speccross.Run costs on
// those epochs. Once E is priced, a price test posts its window to the
// workers or runs it inline, on the calling thread, through E's own
// sequential view. The barrier has no guard: while unpriced, its window is
// posted. A panic in an inline window or a guard's probe continues on the
// caller, and the runtime goes back to the pool usable. A run that asks
// for a forced misspeculation (Spec.ForceMisspecEpoch) is RunParallel, as
// in speccross.Run: the fault asks to see speculation recover.
//
// Correctness is engine-independent: every window runs to completion
// (SPECCROSS windows recover internally via rollback and barrier
// re-execution), and window boundaries fully quiesce, so the final state
// equals the sequential result regardless of the decisions. Run borrows one
// runtime from the engine pool for the call and releases it on return.
func Run(w Workload, cfg Config) Stats {
	if cfg.Spec.ForceMisspecEpoch > 0 {
		return RunParallel(w, cfg)
	}
	cfg.fill()
	rt := engine.Acquire(cfg.Workers)
	defer rt.Release()
	return run(rt, w, cfg, true)
}

// RunOn is the unguarded windowed execution, on the threads and state of rt,
// which must have been created for cfg.Workers workers: every window is
// posted to the engine the policy names. Every window's engine runs on rt,
// so a window boundary is a quiesce of standing threads and an engine
// switch hands the same workers a different loop; nothing is spawned,
// joined or allocated per window.
func RunOn(rt *engine.Runtime, w Workload, cfg Config) Stats {
	defer rt.Settle()
	return run(rt, w, cfg, false)
}

// RunParallel is RunOn on a runtime borrowed from the engine pool for the
// call and released on return: Run without its guard, every window posted
// whatever it costs. The tests and chaos arms that pin what the engines'
// windows do run it.
func RunParallel(w Workload, cfg Config) Stats {
	cfg.fill()
	rt := engine.Acquire(cfg.Workers)
	defer rt.Release()
	return RunOn(rt, w, cfg)
}

// run is the controller loop, behind the price test when guarded is set.
// It runs on the adaptive monitor's labeled goroutine, and each posted
// window's engine relabels the runtime threads it posts to (the controller
// thread itself re-labels per engine call via the engines' own Labeled
// wrappers, so its scheduling work attributes to the engine that performed
// it).
func run(rt *engine.Runtime, w Workload, cfg Config, guarded bool) Stats {
	cfg.fill()
	epochs := w.Epochs()
	if inv := w.Invocations(); inv != epochs {
		panic(fmt.Sprintf("adaptive: workload views disagree: %d invocations vs %d epochs", inv, epochs))
	}
	c := newController(rt, w, cfg, guarded)
	c.stats.Samples = make([]Sample, 0, (epochs+cfg.Window-1)/cfg.Window)
	rt.Labeled("adaptive", "control", func() {
		e := cfg.Start
		for lo := 0; lo < epochs; lo += cfg.Window {
			e = c.window(e, lo, min(lo+cfg.Window, epochs))
		}
	})
	return c.stats
}

// controller is one adaptive run: its configuration, the window view every
// posted window hands its engine, the guard's prices, and the statistics so
// far.
type controller struct {
	rt      *engine.Runtime
	cfg     Config
	ctl     *trace.ThreadTrace
	guarded bool
	skip    bool // the workload asked for the inline-window-skip-epoch mutation
	shards  int  // SPECCROSS's checker shards, for the Decision
	// One view object serves every window: SPECCROSS keeps its checkpoint
	// image on the runtime, valid from one speculative window to the next
	// for as long as it is handed the same workload value.
	win    window
	distOf func(epoch int) int64 // Spec.SpecDistanceOf re-based to the window, or nil
	prices prices
	stats  Stats
}

func newController(rt *engine.Runtime, w Workload, cfg Config, guarded bool) *controller {
	c := &controller{rt: rt, cfg: cfg, ctl: cfg.Trace.Lane(trace.LaneControl), guarded: guarded, win: window{w: w}}
	c.win.dw, _ = w.(speccross.DeltaWorkload)
	c.win.irr, _ = w.(speccross.Irreversibler)
	if s, ok := w.(inlineSkipper); ok {
		c.skip = s.InlineWindowSkipEpoch()
	}
	if r, ok := w.(interface{ ResumeOffByOne() bool }); ok {
		c.win.resumeOff = r.ResumeOffByOne()
	}
	if r, ok := w.(interface{ ResumeSkipEpoch() bool }); ok {
		c.win.resumeSkip = r.ResumeSkipEpoch()
	}
	spec := cfg.Spec
	spec.Workers = cfg.Workers
	c.shards = spec.Shards()
	if of := cfg.Spec.SpecDistanceOf; of != nil {
		c.distOf = func(epoch int) int64 { return of(c.win.lo + epoch) }
	}
	return c
}

// window runs epochs [lo, hi) as one window of engine e and returns the
// engine of the next: the policy's answer after a window posted from its
// first epoch, and e after any other. Inline epochs carry no conflict
// signal, and the posted rest of a window cannot see the dependences into
// them, so its manifest rate may read low where the region's is not.
func (c *controller) window(e Engine, lo, hi int) Engine {
	cfg := &c.cfg
	s := Sample{Engine: e, StartEpoch: lo, EndEpoch: hi}
	span := c.ctl.BeginSpan(trace.SpanWindow, cfg.SpanParent)
	c.ctl.Emit(trace.KindWindowBegin, int64(lo), int64(hi), int64(e))
	inlineNs, engineNs := c.prices.inline, c.prices.engine[e]
	whole := false // the window was posted from its first epoch
	guard := c.guarded && e != EngineBarrier && engineNs == 0
	start := time.Now()
	switch {
	case !c.guarded:
		c.post(e, lo, hi, false, &s)
		whole = true
	case guard:
		inlineNs, engineNs = c.post(e, lo, hi, true, &s)
	case c.prices.post(e):
		c.post(e, lo, hi, false, &s)
		whole = true
	default:
		c.inline(e, lo, hi, &s)
	}
	winNs := int64(time.Since(start))
	span.End()

	boundaryStart := time.Now()
	c.stats.Windows++
	c.stats.EngineWindows[e]++
	c.stats.Samples = append(c.stats.Samples, s)
	next, reason := e, ""
	if whole {
		next, reason = cfg.Policy.Decide(s)
		if next < 0 || next >= NumEngines {
			panic(fmt.Sprintf("adaptive: policy returned unknown engine %v", next))
		}
		if next != e {
			c.stats.Switches++
			c.ctl.Emit(trace.KindEngineSwitch, int64(e), int64(next), int64(hi))
		}
	} else if cfg.OnDecision != nil {
		reason = inlineReason(e, &s, guard, inlineNs, engineNs)
	}
	if cfg.OnDecision != nil {
		cfg.OnDecision(Decision{
			Window:     c.stats.Windows - 1,
			Sample:     s,
			Next:       next,
			Switched:   next != e,
			WindowNs:   winNs,
			BoundaryNs: int64(time.Since(boundaryStart)),
			Reason:     reason,
			SeedSource: cfg.SeedSource,
			InlineNs:   inlineNs,
			EngineNs:   engineNs,

			RuntimeReused:  c.rt.Reused(),
			RuntimeThreads: c.rt.Threads(),
			CheckerShards:  c.shards,
		})
	}
	return next
}

// post runs epochs [lo, hi) on engine e and adds what it observed to s and
// the statistics. Unguarded, e's parallel execution runs them all. Guarded,
// e's own guard runs them: it may run some or all of them inline on the
// calling thread, and post returns its rates, in ns per task, the inline
// one and its estimate of e's. The prices record the window either way
// (guard.go); the barrier has no guard.
func (c *controller) post(e Engine, lo, hi int, guarded bool, s *Sample) (inlineNs, engineNs float64) {
	cfg, rt, w := &c.cfg, c.rt, c.win.w
	c.win.lo, c.win.hi = lo, hi
	var tasks, inline int64
	for ep := lo; ep < hi; ep++ {
		tasks += int64(w.Tasks(ep))
	}
	start := time.Now()
	switch e {
	case EngineBarrier:
		speccross.RunBarriersOn(rt, &c.win, cfg.Trace)
	case EngineDomore:
		opts := cfg.Domore
		opts.Workers = cfg.Workers
		opts.Trace = cfg.Trace
		run := domore.RunOn
		if guarded {
			run = domore.RunGuardedOn
		}
		st := run(rt, &c.win, opts)
		addDomore(&c.stats.Domore, st)
		if n := st.Iterations - st.Inline; n > 0 {
			s.ManifestRate = float64(st.Dependences) / float64(n)
		}
		inline, inlineNs, engineNs = st.Inline, st.InlineNs, st.SchedNs
	case EngineSpecCross:
		sc := cfg.Spec
		sc.Workers = cfg.Workers
		sc.CheckpointEvery = hi - lo
		sc.Trace = cfg.Trace
		// The template's epoch-indexed knobs are absolute; the window
		// view re-bases epochs to 0, so shift them accordingly.
		sc.SpecDistanceOf = c.distOf
		if fe := cfg.Spec.ForceMisspecEpoch; fe > 0 {
			if fe >= lo && fe < hi {
				rel := fe - lo
				if rel == 0 && hi-lo > 1 {
					// speccross only injects on positive epoch indices;
					// keep the fault in-window by moving it one epoch.
					rel = 1
				}
				sc.ForceMisspecEpoch = rel
			} else {
				sc.ForceMisspecEpoch = -1
			}
		}
		run := speccross.RunOn
		if guarded {
			run = speccross.RunGuardedOn
		}
		st := run(rt, &c.win, sc)
		addSpec(&c.stats.Spec, st)
		s.Misspeculated = st.Misspeculations > 0
		if st.Tasks > 0 {
			s.CheckerPressure = float64(st.Comparisons) / float64(st.Tasks)
		}
		if st.PrefilterChecks > 0 {
			s.PrefilterHitRate = float64(st.PrefilterHits) / float64(st.PrefilterChecks)
		}
		inline, inlineNs, engineNs = st.InlineTasks, st.InlineNs, st.SpecNs
	default:
		panic(fmt.Sprintf("adaptive: unknown engine %v", e))
	}
	d := time.Since(start)
	s.Tasks += tasks
	s.Inline += inline
	if !guarded {
		c.prices.ranPosted(e, d, tasks)
		return 0, 0
	}
	if inline > 0 {
		c.ctl.Emit(trace.KindInline, inline, int64(inlineNs), int64(engineNs))
	}
	c.prices.ranGuarded(e, d, tasks, inline, inlineNs, engineNs)
	return inlineNs, engineNs
}

// window exposes the epoch range [lo, hi) of a workload as a standalone
// workload under both engine views, shifting indices so each engine sees
// a region starting at invocation/epoch 0.
type window struct {
	w      Workload
	dw     speccross.DeltaWorkload // w's delta view, or nil
	irr    speccross.Irreversibler // w's irreversible-epoch marker, or nil
	lo, hi int
	// The engines' guards read the chaos harness's resume mutations off the
	// workload they are handed, which is this view; it forwards w's answers.
	resumeOff, resumeSkip bool
}

func (s *window) Invocations() int       { return s.hi - s.lo }
func (s *window) Iterations(inv int) int { return s.w.Iterations(s.lo + inv) }
func (s *window) Sequential(inv int)     { s.w.Sequential(s.lo + inv) }
func (s *window) ComputeAddr(inv, iter int, buf []uint64) []uint64 {
	return s.w.ComputeAddr(s.lo+inv, iter, buf)
}
func (s *window) Execute(inv, iter, tid int) { s.w.Execute(s.lo+inv, iter, tid) }

func (s *window) Epochs() int         { return s.hi - s.lo }
func (s *window) Tasks(epoch int) int { return s.w.Tasks(s.lo + epoch) }
func (s *window) Run(epoch, task, tid int, sig *signature.Signature) {
	s.w.Run(s.lo+epoch, task, tid, sig)
}
func (s *window) Snapshot() any    { return s.w.Snapshot() }
func (s *window) Restore(snap any) { s.w.Restore(snap) }

// The speccross.DeltaWorkload view forwards to the underlying workload so
// SPECCROSS windows keep incremental checkpoints; StateLen 0 (the
// delta-incapable marker) is reported when the workload has no delta view.
func (s *window) StateLen() int {
	if s.dw != nil {
		return s.dw.StateLen()
	}
	return 0
}

func (s *window) ReadCell(cell uint64) int64     { return s.dw.ReadCell(cell) }
func (s *window) WriteCell(cell uint64, v int64) { s.dw.WriteCell(cell, v) }
func (s *window) AddrCells(addr uint64) (lo, hi uint64) {
	return s.dw.AddrCells(addr)
}

// Irreversible forwards the §4.2.2 irreversible-epoch marker when the
// underlying workload provides one.
func (s *window) Irreversible(epoch int) bool {
	return s.irr != nil && s.irr.Irreversible(s.lo+epoch)
}

func (s *window) ResumeOffByOne() bool  { return s.resumeOff }
func (s *window) ResumeSkipEpoch() bool { return s.resumeSkip }

func addDomore(dst *domore.Stats, s domore.Stats) {
	dst.Iterations += s.Iterations
	dst.Inline += s.Inline
	if s.InlineNs > 0 {
		dst.InlineNs, dst.SchedNs = s.InlineNs, s.SchedNs
	}
	dst.Dispatches += s.Dispatches
	dst.SyncConditions += s.SyncConditions
	dst.Dependences += s.Dependences
	dst.Stalls += s.Stalls
	dst.AddrChecks += s.AddrChecks
	dst.Batches += s.Batches
}

func addSpec(dst *speccross.Stats, s speccross.Stats) {
	dst.Tasks += s.Tasks
	dst.Epochs += s.Epochs
	dst.Inline += s.Inline
	dst.InlineTasks += s.InlineTasks
	if s.InlineNs > 0 {
		dst.InlineNs, dst.SpecNs = s.InlineNs, s.SpecNs
	}
	dst.CheckRequests += s.CheckRequests
	dst.Comparisons += s.Comparisons
	dst.Misspeculations += s.Misspeculations
	dst.Checkpoints += s.Checkpoints
	dst.ReexecutedEpochs += s.ReexecutedEpochs
	dst.RangeStalls += s.RangeStalls
	dst.PrefilterChecks += s.PrefilterChecks
	dst.PrefilterHits += s.PrefilterHits
	dst.DeltaCheckpoints += s.DeltaCheckpoints
	dst.DeltaCells += s.DeltaCells
	dst.DeltaRestores += s.DeltaRestores
}
