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
	rt   *engine.Runtime
	rec  *trace.Recorder
}

func (d *dirtyRun) fail(engine, format string, args ...any) Failure {
	return Failure{
		Engine: "dirty-runtime/" + engine, Traced: d.opts.Traced,
		Faults: d.opts.Faults.String(), Mutation: string(d.opts.Mutation),
		Detail: fmt.Sprintf(format, args...), Spec: d.spec,
	}
}

// reset returns the kernel to its initial state for the next run. The
// harness changes the state behind the engines' back here, which is exactly
// what Runtime.StateChanged exists to report; MutStaleRuntime is the bug of
// not reporting it.
func (d *dirtyRun) reset() {
	clear(d.k.State)
	if d.opts.Mutation != MutStaleRuntime {
		d.rt.StateChanged()
	}
	d.rec.Reset()
}

func (d *dirtyRun) specConfig() speccross.Config {
	c := speccross.Config{
		Workers: d.opts.Workers, SigKind: d.spec.Kind(),
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

// runDirty executes the DirtyRuntime pass over one case and returns its
// failures.
func runDirty(spec *Spec, want []int64, opts Options) (fails []Failure) {
	d := &dirtyRun{spec: spec, opts: opts, k: spec.Kernel(), rt: engine.New(opts.Workers)}
	defer func() { d.rt.Close() }()
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
	speccross.RunOn(d.rt, d.k, d.specConfig())
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
		if st := speccross.RunOn(d.rt, d.k, cfg); st.Misspeculations == 0 {
			fails = append(fails, d.fail(kind, "forced misspeculation did not fire"))
		}
	case "spec-panic":
		w := &faulty{Workload: d.k, at: at, spec: true}
		w.left.Store(1)
		if st := speccross.RunOn(d.rt, w, d.specConfig()); st.Misspeculations == 0 {
			fails = append(fails, d.fail(kind, "injected speculative panic was not a misspeculation"))
		}
	case "spec-timeout":
		cfg := d.specConfig()
		cfg.SpecTimeout = time.Nanosecond
		speccross.RunOn(d.rt, d.k, cfg)
	case "worker-panic":
		func() {
			defer func() {
				if r := recover(); r != dirtyPanic {
					fails = append(fails, d.fail(kind, "recovered %v, want the worker's panic re-raised on the caller", r))
				}
			}()
			w := &faulty{Workload: d.k, at: at}
			w.left.Store(1)
			domore.RunOn(d.rt, w, d.domoreOptions())
		}()
		if !d.rt.Closed() {
			fails = append(fails, d.fail(kind, "runtime still open after a worker panicked on it"))
			return fails
		}
		d.rt = engine.New(opts.Workers) // discarded: the next runs get its replacement
	}
	if d.rt.Closed() {
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

// runClean runs one engine on the shared runtime with no fault injected and
// compares its deterministic Stats with a run of the same engine, same
// options, on a fresh kernel and a runtime of its own.
func (d *dirtyRun) runClean(eng string) string {
	fresh := d.spec.Kernel()
	segments := int64((d.spec.NumEpochs() + d.opts.CheckpointEvery - 1) / d.opts.CheckpointEvery)
	switch eng {
	case "barrier":
		speccross.RunBarriersOn(d.rt, d.k, d.rec)
	case "domore", "domore-sharded":
		o := d.domoreOptions()
		run, runOn := domore.Run, domore.RunOn
		if eng == "domore-sharded" {
			o.Lanes, o.Batch = shardLanes, shardBatch
			run, runOn = domore.RunSharded, domore.RunShardedOn
		}
		got := runOn(d.rt, d.k, o)
		if detail := domoreInvariants(got, d.spec, d.rec); detail != "" {
			return detail
		}
		o.Trace = nil
		ref := run(fresh, o)
		got.Stalls, got.LaneWaits, ref.Stalls, ref.LaneWaits = 0, 0, 0, 0 // timing
		if got != ref {
			return fmt.Sprintf("deterministic Stats %+v on the reused runtime, %+v on a fresh one", got, ref)
		}
	case "speccross":
		st := speccross.RunOn(d.rt, d.k, d.specConfig())
		if detail := speccrossInvariants(st, d.spec, d.rec); detail != "" {
			return detail
		}
		// One checkpoint per segment, committed or recovered, on any runtime.
		if st.Checkpoints != segments {
			return fmt.Sprintf("speccross took %d checkpoints over %d segments", st.Checkpoints, segments)
		}
	case "adaptive":
		cfg := adaptive.Config{Workers: d.opts.Workers, Window: d.opts.Window, Trace: d.rec}
		cfg.Spec.SigKind = d.spec.Kind()
		cfg.Domore = d.opts.Faults.Domore(cfg.Domore)
		st := adaptive.RunOn(d.rt, d.k, cfg)
		if detail := adaptiveInvariants(st, d.spec, d.opts.Window, d.rec); detail != "" {
			return detail
		}
	default:
		panic("chaos: unknown engine " + eng)
	}
	return ""
}
