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
// order.
var Engines = []string{"barrier", "domore", "domore-sharded", "speccross", "adaptive"}

// shardLanes is the scheduler-lane count every sharded-scheduler run in
// this package uses — the ShardSkew fault and the stale-shard-claim
// mutation key their shard arithmetic on the same constant, so the lane
// they target is the lane that actually runs.
const shardLanes = 3

// shardBatch is the chunk size of those runs. It is small so that generated
// invocation lengths (1 to genMaxTasks) fall on both sides of it: one case
// then has full chunks, which the scheduler lanes detect, and partial ones,
// which the sharded driver detects itself.
const shardBatch = 8

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
		st := domore.Run(w, opts.Faults.Domore(domore.Options{Workers: opts.Workers, Trace: rec}))
		detail = domoreInvariants(st, spec, rec)
	case "domore-sharded":
		st := domore.RunSharded(w, opts.Faults.Domore(domore.Options{
			Workers: opts.Workers, Lanes: shardLanes, Batch: shardBatch, Trace: rec,
		}))
		detail = domoreInvariants(st, spec, rec)
		if detail == "" && rec != nil {
			// One event per chunk per shard, from whichever thread detected it.
			var chunks int64
			for e := 0; e < spec.NumEpochs(); e++ {
				chunks += int64((len(spec.Epochs[e].Tasks) + shardBatch - 1) / shardBatch)
			}
			if got := rec.Summary().Counts[trace.KindShardChunk]; got != chunks*shardLanes {
				detail = fmt.Sprintf("domore-sharded emitted %d shard-chunk events, want %d chunks × %d shards", got, chunks, shardLanes)
			}
		}
	case "speccross":
		cfg := opts.Faults.Spec(speccross.Config{
			Workers:         opts.Workers,
			SigKind:         spec.Kind(),
			CheckpointEvery: opts.CheckpointEvery,
			Trace:           rec,
		})
		st := speccross.Run(w, cfg)
		detail = speccrossInvariants(st, spec, rec)
	case "adaptive":
		cfg := adaptive.Config{Workers: opts.Workers, Window: opts.Window, Trace: rec}
		cfg.Spec.SigKind = spec.Kind()
		cfg.Spec = opts.Faults.Spec(cfg.Spec)
		cfg.Domore = opts.Faults.Domore(cfg.Domore)
		st := adaptive.Run(w, cfg)
		detail = adaptiveInvariants(st, spec, opts.Window, rec)
	default:
		panic("chaos: unknown engine " + engine)
	}
	if detail != "" {
		return mk(detail)
	}
	if msg := InjectorErr(w); msg != "" {
		return mk(msg)
	}
	return diffState(k, want, mk)
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

func domoreInvariants(st domore.Stats, spec *Spec, rec *trace.Recorder) string {
	if st.Iterations != spec.TotalTasks() {
		return fmt.Sprintf("domore scheduled %d iterations, workload has %d", st.Iterations, spec.TotalTasks())
	}
	if st.Dispatches != st.Iterations {
		// Round-robin is single-owner: exactly one dispatch per iteration.
		return fmt.Sprintf("domore dispatches %d != iterations %d", st.Dispatches, st.Iterations)
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
		{"tasks", sum.Counts[trace.KindTaskEnd], st.Tasks},
		{"committed epochs", sum.Sums[trace.KindEpochCommit], st.Epochs},
		{"check requests", sum.Counts[trace.KindCheckRequest], st.CheckRequests},
		{"prefilter checks", sum.Counts[trace.KindSigPrefilter], st.PrefilterChecks},
		{"comparisons", sum.Counts[trace.KindSigCheck], st.Comparisons},
		{"misspeculations", sum.Counts[trace.KindMisspec], st.Misspeculations},
		{"checkpoints", sum.Counts[trace.KindCheckpoint], st.Checkpoints},
		{"delta checkpoints", sum.Counts[trace.KindCkptDelta], st.DeltaCheckpoints},
		{"delta restores", sum.Counts[trace.KindDeltaRestore], st.DeltaRestores},
		{"re-executed epochs", sum.Sums[trace.KindRecoveryEnd], st.ReexecutedEpochs},
		{"range stalls", sum.Counts[trace.KindRangeStallBegin], st.RangeStalls},
	} {
		if c.fromTrace != c.fromStats {
			return fmt.Sprintf("speccross trace-derived %s %d != engine Stats %d", c.what, c.fromTrace, c.fromStats)
		}
	}
	return ""
}

func adaptiveInvariants(st adaptive.Stats, spec *Spec, window int, rec *trace.Recorder) string {
	wantWindows := (spec.NumEpochs() + window - 1) / window
	if st.Windows != wantWindows {
		return fmt.Sprintf("adaptive ran %d windows, want %d", st.Windows, wantWindows)
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
	return ""
}
