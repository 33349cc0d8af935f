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
// the Chapter 4 Stats); a Policy — hysteresis thresholds by default,
// pluggable for bandit-style learners — picks the engine for the next
// window. Switches pay the documented quiesce cost: a drain barrier when
// leaving DOMORE, a checkpoint barrier when leaving SPECCROSS (both fall
// out of the quiesce every window boundary performs: the engines of all
// windows run on one engine.Runtime, whose threads drain their mailboxes
// there, so a switch hands the same threads a different loop).
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
// The epochal.Kernel skeleton and the benchmark adapters already satisfy
// both halves; Combine glues together separately implemented views.
type Workload interface {
	domore.Workload
	speccross.Workload
}

// Combine builds a unified Workload from separately implemented engine
// views over the same region and shared state. The two views must agree
// on structure (d.Invocations() == s.Epochs(), iteration counts equal).
func Combine(d domore.Workload, s speccross.Workload) Workload {
	return &combined{d: d, s: s}
}

type combined struct {
	d domore.Workload
	s speccross.Workload
}

func (c *combined) Invocations() int         { return c.d.Invocations() }
func (c *combined) Iterations(inv int) int   { return c.d.Iterations(inv) }
func (c *combined) Sequential(inv int)       { c.d.Sequential(inv) }
func (c *combined) Execute(inv, iter, t int) { c.d.Execute(inv, iter, t) }
func (c *combined) Epochs() int              { return c.s.Epochs() }
func (c *combined) Tasks(epoch int) int      { return c.s.Tasks(epoch) }
func (c *combined) Snapshot() any            { return c.s.Snapshot() }
func (c *combined) Restore(snap any)         { c.s.Restore(snap) }
func (c *combined) ComputeAddr(inv, iter int, buf []uint64) []uint64 {
	return c.d.ComputeAddr(inv, iter, buf)
}
func (c *combined) Run(epoch, task, tid int, sig *signature.Signature) {
	c.s.Run(epoch, task, tid, sig)
}

// Config tunes an adaptive execution.
type Config struct {
	// Workers is the worker thread count handed to every engine (each
	// engine adds its own scheduler/checker threads as usual).
	Workers int
	// Window is the number of epochs per monitoring window (default
	// DefaultWindow).
	Window int
	// Policy picks the engine for each next window (default NewThreshold).
	Policy Policy
	// Start is the engine of the first window (default EngineDomore: it is
	// non-speculative and measures the manifest rate directly, so it is
	// the safe probe when nothing is known yet).
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
	// window: the controller emits window-begin and engine-switch events
	// on trace.LaneControl, and each window's engine emits its usual
	// stream (lanes persist across windows; the boundary quiesce makes
	// the handoff safe). The per-window monitor Sample comes from engine
	// Stats whether or not tracing is on.
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
		c.Policy = NewThreshold()
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
	// Domore aggregates the DOMORE windows' statistics.
	Domore domore.Stats
	// Spec aggregates the SPECCROSS windows' statistics.
	Spec speccross.Stats
	// Samples is the per-window monitor log, in execution order.
	Samples []Sample
}

// Run executes the workload under the adaptive controller and returns the
// combined statistics. Correctness is engine-independent: every window
// runs to completion (SPECCROSS windows recover internally via rollback
// and barrier re-execution), and window boundaries fully quiesce, so the
// final state equals the sequential result regardless of the decisions.
// Run borrows one runtime from the engine pool for the call and releases it
// on return.
func Run(w Workload, cfg Config) Stats {
	cfg.fill()
	rt := engine.Acquire(cfg.Workers)
	defer rt.Release()
	return RunOn(rt, w, cfg)
}

// RunOn is Run on the threads and state of rt, which must have been created
// for cfg.Workers workers. Every window's engine runs on it, so a window
// boundary is a quiesce of standing threads and an engine switch hands the
// same workers a different loop; nothing is spawned, joined or allocated
// per window.
func RunOn(rt *engine.Runtime, w Workload, cfg Config) Stats {
	cfg.fill()
	epochs := w.Epochs()
	if inv := w.Invocations(); inv != epochs {
		panic(fmt.Sprintf("adaptive: workload views disagree: %d invocations vs %d epochs", inv, epochs))
	}
	defer rt.Settle()
	var stats Stats
	rt.Labeled("adaptive", "control", func() { stats = runWindows(rt, w, cfg, epochs) })
	return stats
}

// runWindows is the controller loop: it runs on the adaptive monitor's
// labeled goroutine, and each window's engine relabels the runtime threads
// it posts to (the controller thread itself re-labels per engine call via
// the engines' own Labeled wrappers, so its scheduling work attributes to
// the engine that performed it).
func runWindows(rt *engine.Runtime, w Workload, cfg Config, epochs int) Stats {
	stats := Stats{Samples: make([]Sample, 0, (epochs+cfg.Window-1)/cfg.Window)}
	ctl := cfg.Trace.Lane(trace.LaneControl)
	engine := cfg.Start
	// One view object serves every window: SPECCROSS keeps its checkpoint
	// image on the runtime, valid from one speculative window to the next
	// for as long as it is handed the same workload value.
	win := &window{w: w}
	win.dw, _ = w.(speccross.DeltaWorkload)
	win.irr, _ = w.(speccross.Irreversibler)
	spec := cfg.Spec
	spec.Workers = cfg.Workers
	shards := spec.Shards()
	var distOf func(epoch int) int64
	if of := cfg.Spec.SpecDistanceOf; of != nil {
		distOf = func(epoch int) int64 { return of(win.lo + epoch) }
	}
	for lo := 0; lo < epochs; {
		hi := lo + cfg.Window
		if hi > epochs {
			hi = epochs
		}
		win.lo, win.hi = lo, hi
		sample := Sample{Engine: engine, StartEpoch: lo, EndEpoch: hi}
		winSpan := ctl.BeginSpan(trace.SpanWindow, cfg.SpanParent)
		ctl.Emit(trace.KindWindowBegin, int64(lo), int64(hi), int64(engine))
		winStart := time.Now()

		switch engine {
		case EngineBarrier:
			speccross.RunBarriersOn(rt, win, cfg.Trace)
			for e := lo; e < hi; e++ {
				sample.Tasks += int64(w.Tasks(e))
			}
		case EngineDomore:
			opts := cfg.Domore
			opts.Workers = cfg.Workers
			opts.Trace = cfg.Trace
			st := domore.RunOn(rt, win, opts)
			addDomore(&stats.Domore, st)
			sample.Tasks = st.Iterations
			if st.Iterations > 0 {
				sample.ManifestRate = float64(st.Dependences) / float64(st.Iterations)
			}
		case EngineSpecCross:
			sc := cfg.Spec
			sc.Workers = cfg.Workers
			sc.CheckpointEvery = hi - lo
			sc.Trace = cfg.Trace
			// The template's epoch-indexed knobs are absolute; the window
			// view re-bases epochs to 0, so shift them accordingly.
			sc.SpecDistanceOf = distOf
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
			st := speccross.RunOn(rt, win, sc)
			addSpec(&stats.Spec, st)
			sample.Tasks = st.Tasks
			sample.Misspeculated = st.Misspeculations > 0
			if st.Tasks > 0 {
				sample.CheckerPressure = float64(st.Comparisons) / float64(st.Tasks)
			}
			if st.PrefilterChecks > 0 {
				sample.PrefilterHitRate = float64(st.PrefilterHits) / float64(st.PrefilterChecks)
			}
		default:
			panic(fmt.Sprintf("adaptive: unknown engine %v", engine))
		}
		winNs := int64(time.Since(winStart))
		winSpan.End()

		boundaryStart := time.Now()
		stats.Windows++
		stats.EngineWindows[engine]++
		stats.Samples = append(stats.Samples, sample)

		next := cfg.Policy.Decide(sample)
		if next < 0 || next >= NumEngines {
			panic(fmt.Sprintf("adaptive: policy returned unknown engine %v", next))
		}
		if next != engine {
			stats.Switches++
			ctl.Emit(trace.KindEngineSwitch, int64(engine), int64(next), int64(hi))
		}
		if cfg.OnDecision != nil {
			ps := explainPolicy(cfg.Policy, next)
			cfg.OnDecision(Decision{
				Window:     stats.Windows - 1,
				Sample:     sample,
				Next:       next,
				Switched:   next != engine,
				WindowNs:   winNs,
				BoundaryNs: int64(time.Since(boundaryStart)),
				Reason:     ps.Reason,
				SeedSource: cfg.SeedSource,
				PolicyLow:  ps.Low,
				PolicyHold: ps.Hold,

				RuntimeReused:  rt.Reused(),
				RuntimeThreads: rt.Threads(),
				CheckerShards:  shards,
			})
		}
		engine = next
		lo = hi
	}
	return stats
}

// window exposes the epoch range [lo, hi) of a workload as a standalone
// workload under both engine views, shifting indices so each engine sees
// a region starting at invocation/epoch 0.
type window struct {
	w      Workload
	dw     speccross.DeltaWorkload // w's delta view, or nil
	irr    speccross.Irreversibler // w's irreversible-epoch marker, or nil
	lo, hi int
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

func addDomore(dst *domore.Stats, s domore.Stats) {
	dst.Iterations += s.Iterations
	dst.Dispatches += s.Dispatches
	dst.SyncConditions += s.SyncConditions
	dst.Dependences += s.Dependences
	dst.Stalls += s.Stalls
	dst.AddrChecks += s.AddrChecks
}

func addSpec(dst *speccross.Stats, s speccross.Stats) {
	dst.Tasks += s.Tasks
	dst.Epochs += s.Epochs
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
