package chaos

import (
	"fmt"
	"sync/atomic"
	"time"

	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/workloads/epochal"
)

// This file implements the DirtyRuntime fault: every engine of a case runs
// back to back on ONE engine runtime, after that runtime has been warmed up
// by a clean speculative run and then dirtied by a run that ends badly. The
// invariant is that whatever a run leaves behind on the runtime — rings,
// progress words, checker rows, signature arenas, the checkpoint image — the
// next run resets, or, when the runtime was torn down, its replacement never
// sees: each later run matches the sequential oracle and its deterministic
// Stats equal those of the same engine on a runtime of its own.
//
// The pass runs twice. First on a runtime the harness owns, through the
// RunOn entry points, telling it (StateChanged) whenever the kernel is
// rewound between runs. Then through the public entry points — Run, not
// RunOn — which borrow whatever runtime the engine pool hands out: the same
// one each time, since the harness runs them back to back. There the harness
// rewinds the kernel and tells nobody; that the next run does not take the
// last one's checkpoint image for current is what Runtime.Release promises.
// The engines' public entry points, domore.Run and speccross.Run, are
// guarded and may not use their runtime's threads at all, so the pooled
// pass runs their parallel executions, domore.RunParallel and
// speccross.RunParallel, and runs the guarded entry points themselves as
// the domore-guarded and speccross-guarded engines, in both passes.

// dirtyKinds are the ways the dirtying run ends badly, chosen by the fault
// seed. The first three abort speculative segments and must leave the
// runtime usable; the last is a fault no engine can contain, which must
// tear the runtime down.
var dirtyKinds = []string{"forced-misspec", "spec-panic", "spec-timeout", "worker-panic"}

const dirtyPanic = "chaos: injected worker fault"

// faulty panics once, in the first task it is handed of epoch at or later:
// a speculative one (Run with a live signature) when spec is set — the
// §4.2.2 fault the engine turns into a misspeculation — and otherwise a
// DOMORE iteration, which no engine can contain.
type faulty struct {
	adaptive.Workload
	at   int
	spec bool
	left atomic.Int32
}

func (f *faulty) Execute(inv, iter, tid int) {
	if !f.spec && inv >= f.at && f.left.CompareAndSwap(1, 0) {
		panic(dirtyPanic)
	}
	f.Workload.Execute(inv, iter, tid)
}

func (f *faulty) Run(epoch, task, tid int, sig *signature.Signature) {
	if f.spec && sig != nil && epoch >= f.at && f.left.CompareAndSwap(1, 0) {
		panic(dirtyPanic)
	}
	f.Workload.Run(epoch, task, tid, sig)
}

// dirtyRun is one run of the dirty-runtime pass: everything the pass needs
// to start it on the shared runtime and to judge it afterwards.
type dirtyRun struct {
	spec *Spec
	opts Options
	k    *epochal.Kernel // one kernel serves every run, reset in between
	// rt is the runtime the harness owns; nil in the pooled pass, whose runs
	// borrow theirs.
	rt  *engine.Runtime
	rec *trace.Recorder
}

func (d *dirtyRun) pass() string {
	if d.rt == nil {
		return "dirty-runtime/pooled/"
	}
	return "dirty-runtime/"
}

func (d *dirtyRun) fail(engine, format string, args ...any) Failure {
	return Failure{
		Engine: d.pass() + engine, Traced: d.opts.Traced,
		Faults: d.opts.Faults.String(), Mutation: string(d.opts.Mutation),
		Detail: fmt.Sprintf(format, args...), Spec: d.spec,
	}
}

// reset returns the kernel to its initial state for the next run. The
// harness changes the state behind the engines' back here. On its own
// runtime that is exactly what Runtime.StateChanged exists to report, and
// MutStaleRuntime is the bug of not reporting it; a pooled runtime it
// cannot tell, and need not.
func (d *dirtyRun) reset() {
	clear(d.k.State)
	if d.rt != nil && d.opts.Mutation != MutStaleRuntime {
		d.rt.StateChanged()
	}
	d.rec.Reset()
}

// on runs f — one engine's RunOn — on the runtime this pass hands its runs,
// and reports false when the pass hands them none: the pooled pass, where
// the caller goes through the engine's public entry point instead. Under
// MutReleaseKeepsVersion the pooled pass spells that entry point out —
// Acquire, RunOn, Release — with a Release that does not invalidate.
func (d *dirtyRun) on(f func(rt *engine.Runtime)) bool {
	switch {
	case d.rt != nil:
		f(d.rt)
	case d.opts.Mutation == MutReleaseKeepsVersion:
		rt := engine.Acquire(d.opts.Workers)
		defer rt.ReleaseStale()
		f(rt)
	default:
		return false
	}
	return true
}

func (d *dirtyRun) speccross(w speccross.Workload, cfg speccross.Config) (st speccross.Stats) {
	if !d.on(func(rt *engine.Runtime) { st = speccross.RunOn(rt, w, cfg) }) {
		st = speccross.RunParallel(w, cfg)
	}
	return st
}

func (d *dirtyRun) barriers(w speccross.Workload) {
	if !d.on(func(rt *engine.Runtime) { speccross.RunBarriersOn(rt, w, d.rec) }) {
		speccross.RunBarriersTraced(w, d.opts.Workers, d.rec)
	}
}

func (d *dirtyRun) domore(w domore.Workload, o domore.Options) (st domore.Stats) {
	if !d.on(func(rt *engine.Runtime) { st = domore.RunOn(rt, w, o) }) {
		st = domore.RunParallel(w, o)
	}
	return st
}

func (d *dirtyRun) adaptive(w adaptive.Workload, cfg adaptive.Config) (st adaptive.Stats) {
	if !d.on(func(rt *engine.Runtime) { st = adaptive.RunOn(rt, w, cfg) }) {
		st = adaptive.RunParallel(w, cfg)
	}
	return st
}

func (d *dirtyRun) specConfig() speccross.Config {
	c := speccross.Config{
		Workers: d.opts.Workers, SigKind: d.spec.Kind(), SpecDistance: d.spec.SpecDistance(d.opts.Workers),
		CheckpointEvery: d.opts.CheckpointEvery, Trace: d.rec,
	}
	if d.opts.Faults.QueueFull {
		c.QueueCap = 1
	}
	return c
}

func (d *dirtyRun) domoreOptions() domore.Options {
	return d.opts.Faults.Domore(domore.Options{Workers: d.opts.Workers, Trace: d.rec})
}

// runDirty executes both DirtyRuntime passes over one case and returns their
// failures.
func runDirty(spec *Spec, want []int64, opts Options) []Failure {
	return append(runDirtyPass(spec, want, opts, false), runDirtyPass(spec, want, opts, true)...)
}

func runDirtyPass(spec *Spec, want []int64, opts Options, pooled bool) (fails []Failure) {
	d := &dirtyRun{spec: spec, opts: opts, k: spec.Kernel()}
	if !pooled {
		d.rt = engine.New(opts.Workers)
		defer func() { d.rt.Close() }()
	}
	if opts.Traced {
		d.rec = trace.NewRecorder()
		d.rec.SetHook(opts.Faults.Hook())
	}
	diverged := func(engine string) bool {
		f := diffState(d.k, want, func(detail string) *Failure {
			f := d.fail(engine, "%s", detail)
			return &f
		})
		if f != nil {
			fails = append(fails, *f)
		}
		return f != nil
	}

	// Warm-up: a clean speculative run, so the runtime holds everything a
	// run can leave behind — a current checkpoint image included.
	d.speccross(d.k, d.specConfig())
	if diverged("warm-up") {
		return fails
	}

	// The dirtying run. All faults but the timeout land in the first epoch
	// past epoch 0 that has a task (ForceMisspecEpoch cannot name epoch 0).
	kind := dirtyKinds[opts.Faults.Seed%uint64(len(dirtyKinds))]
	at := 1
	for at < spec.NumEpochs() && len(spec.Epochs[at].Tasks) == 0 {
		at++
	}
	if at >= spec.NumEpochs() {
		kind = "spec-timeout"
	}
	d.reset()
	switch kind {
	case "forced-misspec":
		cfg := d.specConfig()
		cfg.ForceMisspecEpoch = at
		if st := d.speccross(d.k, cfg); st.Misspeculations == 0 {
			fails = append(fails, d.fail(kind, "forced misspeculation did not fire"))
		}
	case "spec-panic":
		w := &faulty{Workload: d.k, at: at, spec: true}
		w.left.Store(1)
		if st := d.speccross(w, d.specConfig()); st.Misspeculations == 0 {
			fails = append(fails, d.fail(kind, "injected speculative panic was not a misspeculation"))
		}
	case "spec-timeout":
		cfg := d.specConfig()
		cfg.SpecTimeout = time.Nanosecond
		d.speccross(d.k, cfg)
	case "worker-panic":
		func() {
			defer func() {
				if r := recover(); r != dirtyPanic {
					fails = append(fails, d.fail(kind, "recovered %v, want the worker's panic re-raised on the caller", r))
				}
			}()
			w := &faulty{Workload: d.k, at: at}
			w.left.Store(1)
			d.domore(w, d.domoreOptions())
		}()
		// A pooled runtime that failed is dropped by its Release: the next
		// runs borrow another.
		if d.rt != nil {
			if !d.rt.Closed() {
				fails = append(fails, d.fail(kind, "runtime still open after a worker panicked on it"))
				return fails
			}
			d.rt = engine.New(opts.Workers) // discarded: the next runs get its replacement
		}
	}
	if d.rt != nil && d.rt.Closed() {
		fails = append(fails, d.fail(kind, "runtime was torn down by a fault the engine contains"))
		return fails
	}
	if kind != "worker-panic" && diverged(kind) {
		return fails
	}

	// Every engine, back to back, on the runtime the fault left behind.
	for _, eng := range Engines {
		d.reset()
		if detail := d.runClean(eng); detail != "" {
			fails = append(fails, d.fail(eng, "%s", detail))
			continue
		}
		diverged(eng)
	}
	return fails
}

// runClean runs one engine on the pass's runtime with no fault injected and
// compares its deterministic Stats with a run of the same engine, same
// options, on a fresh kernel and a runtime of its own.
func (d *dirtyRun) runClean(eng string) string {
	segments := int64((d.spec.NumEpochs() + d.opts.CheckpointEvery - 1) / d.opts.CheckpointEvery)
	switch eng {
	case "barrier":
		d.barriers(d.k)
	case "domore", "domore-round-robin":
		var w, fresh domore.Workload = d.k, d.spec.Kernel()
		if eng == "domore-round-robin" {
			w, fresh = roundRobin{w}, roundRobin{fresh}
		}
		o := d.domoreOptions()
		got := d.domore(w, o)
		if detail := domoreInvariants(got, d.spec, d.rec); detail != "" {
			return detail
		}
		o.Trace = nil
		own := engine.New(d.opts.Workers)
		ref := domore.RunOn(own, fresh, o)
		own.Close()
		got.Stalls, ref.Stalls = 0, 0 // timing
		if got != ref {
			return fmt.Sprintf("deterministic Stats %+v on the reused runtime, %+v on a fresh one", got, ref)
		}
	case "domore-guarded":
		return guardedInvariants(domore.Run(d.k, d.domoreOptions()), d.spec, d.rec)
	case "speccross-guarded":
		return guardedSpecInvariants(speccross.Run(d.k, d.specConfig()), d.spec, d.rec)
	case "speccross":
		st := d.speccross(d.k, d.specConfig())
		if detail := speccrossInvariants(st, d.spec, d.rec); detail != "" {
			return detail
		}
		// One checkpoint per segment, committed or recovered, on any runtime.
		if st.Checkpoints != segments {
			return fmt.Sprintf("speccross took %d checkpoints over %d segments", st.Checkpoints, segments)
		}
	case "adaptive", "adaptive-guarded":
		cfg := adaptive.Config{Workers: d.opts.Workers, Window: d.opts.Window, Trace: d.rec}
		cfg.Spec.SigKind = d.spec.Kind()
		cfg.Spec.SpecDistance = d.spec.SpecDistance(d.opts.Workers)
		cfg.Domore = d.opts.Faults.Domore(cfg.Domore)
		var st adaptive.Stats
		if eng == "adaptive" {
			st = d.adaptive(d.k, cfg)
		} else {
			st = adaptive.Run(d.k, cfg)
		}
		return adaptiveInvariants(st, d.spec, d.opts.Window, d.rec)
	default:
		panic("chaos: unknown engine " + eng)
	}
	return ""
}
