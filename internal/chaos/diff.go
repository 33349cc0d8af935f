package chaos

import (
	"fmt"
	"strings"

	"crossinv/internal/analysis/xdep"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/workloads/epochal"
)

// Engines lists the engines the differential runner exercises, in run
// order. domore and domore-round-robin are DOMORE's parallel execution
// (domore.RunParallel), the second under the scheduler's round-robin test
// seam, where nearly every dependence crosses threads and costs a
// condition: besides the oracle it must agree with DOMORE's own assignment
// on every Stats field the assignment cannot change.
// domore-guarded is domore.Run, whose guard runs the region inline first
// and may go parallel where its probe stopped: every iteration must run
// once, inline or scheduled. speccross is SPECCROSS's speculative execution
// (speccross.RunParallel) and speccross-guarded is speccross.Run, whose
// guard runs epochs inline first and may speculate from where its probe
// stopped and hand the rest back after a segment: every epoch must be
// committed, re-executed or run inline. adaptive is the adaptive
// controller's windowed execution with every window posted
// (adaptive.RunParallel), and adaptive-guarded is adaptive.Run, which hands
// a window to DOMORE's or SPECCROSS's own guard while that engine is
// unpriced, and whose price test may run a window inline: every task must
// run once, inline or posted; it starts half the cases at SPECCROSS
// (adaptiveConfig).
var Engines = []string{"barrier", "domore", "domore-round-robin", "domore-guarded", "speccross", "speccross-guarded", "adaptive", "adaptive-guarded"}

// Options configures a differential run of one case.
type Options struct {
	// Workers is the worker-thread count (default 4).
	Workers int
	// CheckpointEvery is the SPECCROSS segment length in epochs. The
	// default 3 is deliberately small so every case spans several
	// checkpoint/recovery cycles.
	CheckpointEvery int
	// Window is the adaptive monitoring-window length (default 4, small
	// for the same reason).
	Window int
	// Faults is the fault-injection plan (zero value: no faults).
	Faults FaultPlan
	// Mutation, when non-empty, deliberately breaks the engine contract
	// (see Mutation) — used to prove the harness catches bugs.
	Mutation Mutation
	// Traced runs every engine with a trace recorder attached and
	// additionally cross-checks trace-derived counts against engine
	// Stats. The DelayLanes fault only perturbs traced runs (its hook
	// hangs off the recorder).
	Traced bool
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 3
	}
	if o.Window <= 0 {
		o.Window = 4
	}
}

// Mismatch is one diverging state cell.
type Mismatch struct {
	Index int   `json:"index"`
	Got   int64 `json:"got"`
	Want  int64 `json:"want"`
}

// Failure describes one engine run that diverged from the sequential
// oracle or violated a Stats invariant.
type Failure struct {
	Engine     string     `json:"engine"`
	Traced     bool       `json:"traced"`
	Faults     string     `json:"faults"`
	Mutation   string     `json:"mutation,omitempty"`
	Detail     string     `json:"detail"`
	Mismatches []Mismatch `json:"mismatches,omitempty"`

	// Spec is the failing case, for artifact serialization.
	Spec *Spec `json:"-"`
}

func (f Failure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: engine=%s traced=%v faults=%s", f.Detail, f.Engine, f.Traced, f.Faults)
	if f.Mutation != "" {
		fmt.Fprintf(&b, " mutation=%s", f.Mutation)
	}
	for _, m := range f.Mismatches {
		fmt.Fprintf(&b, "\n  state[%d] = %d, sequential oracle = %d", m.Index, m.Got, m.Want)
	}
	return b.String()
}

// RunSpec executes the case under every engine and returns all detected
// failures (nil when every engine matches the oracle). Before any engine
// runs, the static soundness gate classifies the case's declared access
// sets and checks the claim against shadow-memory-observed conflicts —
// a statically "conflict-free" case with a real runtime conflict fails
// the sweep before it can mislead an engine.
func RunSpec(spec *Spec, opts Options) []Failure {
	opts.fill()
	var fails []Failure
	claim := StaticClaim(spec)
	if opts.Mutation == MutWidenStatic {
		claim = xdep.SetFacts{Class: xdep.None, ClassName: xdep.None.String()}
	}
	if detail := CheckStaticSoundness(spec, claim); detail != "" {
		fails = append(fails, Failure{
			Engine: "static", Faults: opts.Faults.String(),
			Mutation: string(opts.Mutation), Detail: detail, Spec: spec,
		})
	}
	want := spec.SequentialState()
	for _, eng := range Engines {
		if f := runEngine(spec, eng, want, opts); f != nil {
			fails = append(fails, *f)
		}
	}
	if opts.Faults.DirtyRuntime {
		fails = append(fails, runDirty(spec, want, opts)...)
	}
	return fails
}

// RunSeed generates the case for seed and runs it both untraced and
// traced (the two differ: tracing enables the DelayLanes perturbation and
// the trace-vs-Stats cross-checks).
func RunSeed(seed uint64, opts Options) []Failure {
	spec := Generate(seed)
	var fails []Failure
	for _, traced := range []bool{false, true} {
		o := opts
		o.Traced = traced
		fails = append(fails, RunSpec(spec, o)...)
	}
	return fails
}

// runEngine builds a fresh kernel for the case, layers the mutation (if
// any) and the fault injector over it, runs one engine, and checks: the
// engine did not panic, the fault layer detected nothing, the Stats
// invariants hold (plus trace-derived equalities on traced runs), and the
// final memory equals the sequential oracle.
func runEngine(spec *Spec, engine string, want []int64, opts Options) (fail *Failure) {
	k := spec.Kernel()
	w := opts.Faults.Wrap(opts.Mutation.Wrap(k), k, spec.NumEpochs())

	var rec *trace.Recorder
	if opts.Traced {
		rec = trace.NewRecorder()
		rec.SetHook(opts.Faults.Hook())
	}

	mk := func(detail string) *Failure {
		return &Failure{
			Engine: engine, Traced: opts.Traced,
			Faults: opts.Faults.String(), Mutation: string(opts.Mutation),
			Detail: detail, Spec: spec,
		}
	}
	// The engines are required to contain speculative faults; a panic
	// escaping an engine entry point is itself a failure.
	defer func() {
		if r := recover(); r != nil {
			fail = mk(fmt.Sprintf("engine panicked: %v", r))
		}
	}()

	var detail string
	switch engine {
	case "barrier":
		speccross.RunBarriersTraced(w, opts.Workers, rec)
		if rec != nil {
			sum := rec.Summary()
			if sum.Counts[trace.KindIterStart] != spec.TotalTasks() {
				detail = fmt.Sprintf("trace iterations %d != total tasks %d",
					sum.Counts[trace.KindIterStart], spec.TotalTasks())
			}
		}
	case "domore":
		st := domore.RunParallel(w, opts.Faults.Domore(domore.Options{Workers: opts.Workers, Trace: rec}))
		detail = domoreInvariants(st, spec, rec)
	case "domore-round-robin":
		st := domore.RunParallel(roundRobin{w}, opts.Faults.Domore(domore.Options{Workers: opts.Workers, Trace: rec}))
		detail = domoreInvariants(st, spec, rec)
		if detail == "" && st.Batches != st.Dispatches {
			detail = fmt.Sprintf("round-robin domore sent %d run records for %d dispatches, want one each", st.Batches, st.Dispatches)
		}
		if detail == "" {
			detail = sameAsFollow(st, spec, opts)
		}
	case "domore-guarded":
		st := domore.Run(w, opts.Faults.Domore(domore.Options{Workers: opts.Workers, Trace: rec}))
		detail = guardedInvariants(st, spec, rec)
	case "speccross", "speccross-guarded":
		cfg := specConfig(spec, opts, rec)
		if engine == "speccross" {
			detail = speccrossInvariants(speccross.RunParallel(w, cfg), spec, rec)
		} else {
			detail = guardedSpecInvariants(speccross.Run(w, cfg), spec, rec)
		}
	case "adaptive", "adaptive-guarded":
		cfg := adaptiveConfig(spec, opts, rec, engine == "adaptive-guarded")
		var st adaptive.Stats
		if engine == "adaptive" {
			st = adaptive.RunParallel(w, cfg)
		} else {
			st = adaptive.Run(w, cfg)
		}
		detail = adaptiveInvariants(st, spec, opts.Window, rec)
	default:
		panic("chaos: unknown engine " + engine)
	}
	if detail != "" {
		return mk(detail)
	}
	return diffState(k, want, mk)
}

// specConfig is the SPECCROSS arms' configuration of a case.
func specConfig(spec *Spec, opts Options, rec *trace.Recorder) speccross.Config {
	return opts.Faults.Spec(speccross.Config{
		Workers:         opts.Workers,
		SigKind:         spec.Kind(),
		SpecDistance:    spec.SpecDistance(opts.Workers),
		CheckpointEvery: opts.CheckpointEvery,
		Trace:           rec,
	})
}

// adaptiveConfig is the adaptive arms' configuration of a case. The guarded
// arm starts a case with an odd number of epochs at SPECCROSS rather than
// the controller's default DOMORE, so that SPECCROSS's guard, and the
// speculative faults after its checkpoint, are reached in the first window
// of half the cases, not only after a switch.
func adaptiveConfig(spec *Spec, opts Options, rec *trace.Recorder, guarded bool) adaptive.Config {
	cfg := adaptive.Config{Workers: opts.Workers, Window: opts.Window, Trace: rec}
	cfg.Spec.SigKind = spec.Kind()
	cfg.Spec.SpecDistance = spec.SpecDistance(opts.Workers)
	cfg.Spec = opts.Faults.Spec(cfg.Spec)
	cfg.Domore = opts.Faults.Domore(cfg.Domore)
	if guarded && spec.NumEpochs()%2 == 1 {
		cfg.Start = adaptive.EngineSpecCross
	}
	return cfg
}

// diffState compares the final memory image against the oracle, keeping
// the first few diverging cells for the report.
func diffState(k *epochal.Kernel, want []int64, mk func(string) *Failure) *Failure {
	var mm []Mismatch
	total := 0
	for i, v := range k.State {
		if v != want[i] {
			total++
			if len(mm) < 4 {
				mm = append(mm, Mismatch{Index: i, Got: v, Want: want[i]})
			}
		}
	}
	if total == 0 {
		return nil
	}
	f := mk(fmt.Sprintf("final state diverges from sequential oracle in %d of %d cells", total, len(k.State)))
	f.Mismatches = mm
	return f
}

// roundRobin marks a workload for DOMORE's round-robin test seam: iteration
// i goes to worker i mod Workers, one run record each.
type roundRobin struct{ domore.Workload }

func (roundRobin) RoundRobin() bool { return true }

// sameAsFollow compares a round-robin DOMORE run's Stats with those of
// DOMORE's assignment over a fresh kernel of the same case: where
// iterations go changes conditions and stalls, never what is scheduled or
// checked.
func sameAsFollow(rr domore.Stats, spec *Spec, opts Options) string {
	follow := domore.RunParallel(opts.Mutation.Wrap(spec.Kernel()), domore.Options{Workers: opts.Workers})
	if rr.Iterations != follow.Iterations || rr.Dispatches != follow.Dispatches ||
		rr.AddrChecks != follow.AddrChecks || rr.Dependences != follow.Dependences {
		return fmt.Sprintf("round-robin Stats %+v, DOMORE's assignment %+v: iterations, dispatches, addr checks or dependences differ", rr, follow)
	}
	return ""
}

// guardedInvariants checks a guarded domore.Run: the probe's inline
// iterations plus the scheduled ones are every iteration, each run once,
// and the scheduled part keeps the parallel execution's invariants. On a
// traced run the trace says the same: one inline event naming the inline
// iterations, and a schedule event for each other one.
func guardedInvariants(st domore.Stats, spec *Spec, rec *trace.Recorder) string {
	total := spec.TotalTasks()
	if st.Iterations != total || st.Inline+st.Dispatches != total {
		return fmt.Sprintf("guarded domore ran %d iterations inline and dispatched %d, %d in all; workload has %d",
			st.Inline, st.Dispatches, st.Iterations, total)
	}
	if st.Batches > st.Dispatches || (st.Batches == 0) != (st.Dispatches == 0) {
		return fmt.Sprintf("guarded domore sent %d run records for %d dispatches", st.Batches, st.Dispatches)
	}
	if rec == nil {
		return ""
	}
	sum := rec.Summary()
	if sum.Counts[trace.KindInline] != 1 || sum.Sums[trace.KindInline] != st.Inline {
		return fmt.Sprintf("guarded domore emitted %d inline events naming %d iterations, Stats say %d",
			sum.Counts[trace.KindInline], sum.Sums[trace.KindInline], st.Inline)
	}
	if sum.Counts[trace.KindSchedule] != total-st.Inline {
		return fmt.Sprintf("guarded domore scheduled %d iterations in the trace, want %d − %d inline",
			sum.Counts[trace.KindSchedule], total, st.Inline)
	}
	return ""
}

func domoreInvariants(st domore.Stats, spec *Spec, rec *trace.Recorder) string {
	if st.Iterations != spec.TotalTasks() {
		return fmt.Sprintf("domore scheduled %d iterations, workload has %d", st.Iterations, spec.TotalTasks())
	}
	if st.Dispatches != st.Iterations {
		// Every iteration goes to one worker: one dispatch each.
		return fmt.Sprintf("domore dispatches %d != iterations %d", st.Dispatches, st.Iterations)
	}
	if st.Batches > st.Dispatches || (st.Batches == 0) != (st.Dispatches == 0) {
		return fmt.Sprintf("domore sent %d run records for %d dispatches", st.Batches, st.Dispatches)
	}
	if rec == nil {
		return ""
	}
	sum := rec.Summary()
	for _, c := range []struct {
		what      string
		fromTrace int64
		fromStats int64
	}{
		{"schedules", sum.Counts[trace.KindSchedule], st.Iterations},
		{"dispatches", sum.Counts[trace.KindDispatch], st.Dispatches},
		{"sync conditions", sum.Counts[trace.KindSyncCond], st.SyncConditions},
		{"stalls", sum.Counts[trace.KindStallBegin], st.Stalls},
		{"addr checks", sum.Sums[trace.KindAddrCheck], st.AddrChecks},
	} {
		if c.fromTrace != c.fromStats {
			return fmt.Sprintf("domore trace-derived %s %d != engine Stats %d", c.what, c.fromTrace, c.fromStats)
		}
	}
	return ""
}

func speccrossInvariants(st speccross.Stats, spec *Spec, rec *trace.Recorder) string {
	n := int64(spec.NumEpochs())
	if st.Epochs+st.ReexecutedEpochs != n {
		return fmt.Sprintf("speccross committed %d + re-executed %d epochs != %d", st.Epochs, st.ReexecutedEpochs, n)
	}
	if (st.Misspeculations == 0) != (st.ReexecutedEpochs == 0) {
		return fmt.Sprintf("speccross misspeculations %d inconsistent with re-executed epochs %d",
			st.Misspeculations, st.ReexecutedEpochs)
	}
	if st.Misspeculations == 0 && st.Tasks != spec.TotalTasks() {
		return fmt.Sprintf("speccross ran %d tasks without misspeculation, workload has %d", st.Tasks, spec.TotalTasks())
	}
	if rec == nil {
		return ""
	}
	sum := rec.Summary()
	for _, c := range []struct {
		what      string
		fromTrace int64
		fromStats int64
	}{
		{"committed tasks", committedTaskEnds(rec), st.Tasks},
		{"committed epochs", sum.Sums[trace.KindEpochCommit], st.Epochs},
		{"check requests", sum.Counts[trace.KindCheckRequest], st.CheckRequests},
		{"prefilter checks", sum.Counts[trace.KindSigPrefilter], st.PrefilterChecks},
		{"comparisons", sum.Counts[trace.KindSigCheck], st.Comparisons},
		{"misspeculations", sum.Counts[trace.KindMisspec], st.Misspeculations},
		{"checkpoints", sum.Counts[trace.KindCheckpoint], st.Checkpoints},
		{"delta checkpoints", sum.Counts[trace.KindCkptDelta], st.DeltaCheckpoints},
		{"restores", sum.Counts[trace.KindRestore], st.Misspeculations},
		{"re-executed epochs", sum.Sums[trace.KindRecoveryEnd], st.ReexecutedEpochs},
		{"range stalls", sum.Counts[trace.KindRangeStallBegin], st.RangeStalls},
	} {
		if c.fromTrace != c.fromStats {
			return fmt.Sprintf("speccross trace-derived %s %d != engine Stats %d", c.what, c.fromTrace, c.fromStats)
		}
	}
	return ""
}

// committedTaskEnds counts the trace's speculative task ends in the epochs
// of committed segments: what Stats.Tasks counts of a run with no inline
// epochs. An aborted segment's executions, however many ran before the
// workers saw the flag, are left out of both. The harness's cases are far
// smaller than a lane's ring, so no event is dropped.
func committedTaskEnds(rec *trace.Recorder) int64 {
	evs := rec.Events()
	var committed [][2]int64 // [start, end) of each committed segment
	for _, ev := range evs {
		if ev.Kind == trace.KindEpochCommit {
			committed = append(committed, [2]int64{ev.B, ev.C})
		}
	}
	var n int64
	for _, ev := range evs {
		if ev.Kind != trace.KindTaskEnd {
			continue
		}
		for _, c := range committed {
			if ev.A >= c[0] && ev.A < c[1] {
				n++
				break
			}
		}
	}
	return n
}

// guardedSpecInvariants checks a guarded speccross.Run: the epochs
// committed speculatively, re-executed after a misspeculation and run
// inline are every epoch, each run once; a run with no misspeculation
// counted every task; and on a traced run the trace says the same, with one
// inline event naming the inline epochs.
func guardedSpecInvariants(st speccross.Stats, spec *Spec, rec *trace.Recorder) string {
	n := int64(spec.NumEpochs())
	if st.Epochs+st.ReexecutedEpochs+st.Inline != n {
		return fmt.Sprintf("guarded speccross committed %d + re-executed %d + ran inline %d epochs != %d",
			st.Epochs, st.ReexecutedEpochs, st.Inline, n)
	}
	if (st.Misspeculations == 0) != (st.ReexecutedEpochs == 0) {
		return fmt.Sprintf("guarded speccross misspeculations %d inconsistent with re-executed epochs %d",
			st.Misspeculations, st.ReexecutedEpochs)
	}
	if st.Misspeculations == 0 && st.Tasks != spec.TotalTasks() {
		return fmt.Sprintf("guarded speccross ran %d tasks without misspeculation, workload has %d", st.Tasks, spec.TotalTasks())
	}
	if rec == nil {
		return ""
	}
	sum := rec.Summary()
	if sum.Counts[trace.KindInline] != 1 || sum.Sums[trace.KindInline] != st.Inline {
		return fmt.Sprintf("guarded speccross emitted %d inline events naming %d epochs, Stats say %d",
			sum.Counts[trace.KindInline], sum.Sums[trace.KindInline], st.Inline)
	}
	if sum.Sums[trace.KindEpochCommit] != st.Epochs || sum.Counts[trace.KindMisspec] != st.Misspeculations {
		return fmt.Sprintf("guarded speccross trace-derived committed epochs %d and misspeculations %d != engine Stats %d and %d",
			sum.Sums[trace.KindEpochCommit], sum.Counts[trace.KindMisspec], st.Epochs, st.Misspeculations)
	}
	return ""
}

// adaptiveInvariants checks an adaptive run, guarded or not: one window per
// Window epochs, each counted for its engine; the windows ran every task
// once, inline or posted; DOMORE's Stats count exactly its windows' inline
// iterations; and on a traced run the trace agrees, with one KindInline
// event naming each window's inline tasks.
func adaptiveInvariants(st adaptive.Stats, spec *Spec, window int, rec *trace.Recorder) string {
	wantWindows := (spec.NumEpochs() + window - 1) / window
	if st.Windows != wantWindows {
		return fmt.Sprintf("adaptive ran %d windows, want %d", st.Windows, wantWindows)
	}
	var tasks, inline, domoreInline, inlineWindows int64
	for _, s := range st.Samples {
		tasks += s.Tasks
		inline += s.Inline
		if s.Inline > 0 {
			inlineWindows++
		}
		if s.Engine == adaptive.EngineDomore {
			domoreInline += s.Inline
		}
	}
	if tasks != spec.TotalTasks() {
		return fmt.Sprintf("adaptive windows ran %d tasks, %d of them inline; workload has %d", tasks, inline, spec.TotalTasks())
	}
	if st.Domore.Inline != domoreInline {
		return fmt.Sprintf("adaptive DOMORE Stats count %d inline iterations, its windows %d", st.Domore.Inline, domoreInline)
	}
	var engineWindows int
	for _, n := range st.EngineWindows {
		engineWindows += n
	}
	if engineWindows != st.Windows {
		return fmt.Sprintf("adaptive per-engine windows sum %d != windows %d", engineWindows, st.Windows)
	}
	// The policy decides once per window (including after the last), so
	// at most one switch can be charged per window.
	if st.Switches > st.Windows {
		return fmt.Sprintf("adaptive switches %d > windows %d", st.Switches, st.Windows)
	}
	if rec == nil {
		return ""
	}
	sum := rec.Summary()
	if sum.Counts[trace.KindWindowBegin] != int64(st.Windows) {
		return fmt.Sprintf("adaptive trace-derived windows %d != engine Stats %d",
			sum.Counts[trace.KindWindowBegin], st.Windows)
	}
	if sum.Counts[trace.KindEngineSwitch] != int64(st.Switches) {
		return fmt.Sprintf("adaptive trace-derived switches %d != engine Stats %d",
			sum.Counts[trace.KindEngineSwitch], st.Switches)
	}
	if sum.Counts[trace.KindInline] != inlineWindows || sum.Sums[trace.KindInline] != inline {
		return fmt.Sprintf("adaptive emitted %d inline events naming %d tasks; %d windows ran %d tasks inline",
			sum.Counts[trace.KindInline], sum.Sums[trace.KindInline], inlineWindows, inline)
	}
	return ""
}
