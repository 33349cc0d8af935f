package chaos

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/epochal"
)

// FaultPlan selects which faults to inject into a differential run. Every
// fault preserves sequential semantics — the engines are required to
// recover — so a run with all faults enabled must still match the oracle;
// what the faults change is *coverage*: recovery paths that a clean run
// exercises almost never (rollback and barrier re-execution, §4.2.2;
// queue-full producer backoff, §3.2.3; worker-fault abort) run on every
// pass.
type FaultPlan struct {
	// Seed steers the deterministic fault-site choices (which epochs
	// conflict, which task panics, which events delay).
	Seed uint64
	// QueueFull shrinks every engine queue to capacity 1, forcing the
	// producer-side backoff loops to run constantly.
	QueueFull bool
	// DelayLanes perturbs thread schedules by yielding inside the trace
	// hook at iteration/task starts. Effective only on traced runs (the
	// hook hangs off the recorder).
	DelayLanes bool
	// SigConflict records an extra sentinel write in the signatures of
	// every task of two adjacent epochs. The sentinel address exists in no
	// real access set, so memory is untouched — but whenever tasks of the
	// two epochs overlap in time, the checker detects a conflict and the
	// segment takes the full rollback + re-execution path.
	SigConflict bool
	// Panic makes one chosen task panic (once per run) during speculative
	// execution — the §4.2.2 worker-fault trigger. The engine must flag
	// misspeculation, roll back, and re-execute non-speculatively (where
	// the injection, keyed on a live signature, no longer fires).
	Panic bool
	// Timeout sets a tiny SpecTimeout so speculative segments routinely
	// abort via the user-defined timeout of §4.2.2.
	Timeout bool
	// TornState simulates torn/failed checkpoints: every Restore first
	// scribbles the whole live state (as if speculative writes had torn
	// it arbitrarily) before applying the snapshot, so recovery is proven
	// to repair arbitrary corruption; every Snapshot is probed for
	// aliasing (a snapshot that shares memory with the live state would
	// be torn by later speculative writes).
	TornState bool
	// TornDelta tears one tracked speculative write: the first speculative
	// task records a victim cell in its signature (record-before-write, so
	// the cell lands in the engine's write log), scribbles the cell, and
	// panics. The incremental-checkpoint rollback must repair the cell
	// from its base image — a delta restore that misses logged cells
	// diverges from the oracle. Unlike TornState this fault is compatible
	// with (and exists to exercise) the write-set delta path; on workloads
	// forced onto full snapshots it is repaired by the full restore.
	TornDelta bool
	// ShardSkew delays one seed-chosen scheduler lane of the sharded DOMORE
	// scheduler (domore.RunSharded): the trace hook yields repeatedly at
	// that lane's shard-chunk completion events, so the driver's chunk
	// barrier always waits on a straggler and lane-merge runs with maximal
	// skew between shards. Effective only on traced domore-sharded runs
	// (the hook hangs off the recorder, like DelayLanes).
	ShardSkew bool
	// DirtyRuntime adds a pass that runs the case's engines back to back on
	// one engine runtime — warmed up by a clean speculative run, then
	// dirtied by a seed-chosen run that ends badly: a forced
	// misspeculation, a speculative panic, timed-out segments, or a DOMORE
	// worker panic that tears the runtime down. Every later run, on that
	// runtime or on its replacement, must match the oracle, and its
	// deterministic Stats must equal a fresh runtime's (see dirty.go).
	DirtyRuntime bool
}

// AllFaults returns a plan with every fault kind enabled.
func AllFaults(seed uint64) FaultPlan {
	return FaultPlan{
		Seed: seed, QueueFull: true, DelayLanes: true,
		SigConflict: true, Panic: true, Timeout: true, TornState: true,
		TornDelta: true, ShardSkew: true, DirtyRuntime: true,
	}
}

// ParseFaults parses "all", "none", or a comma-separated subset
// (queue-full, delay, sig-conflict, panic, timeout, torn-state,
// torn-delta, shard-skew, dirty-runtime).
func ParseFaults(s string, seed uint64) (FaultPlan, error) {
	switch s {
	case "", "none":
		return FaultPlan{Seed: seed}, nil
	case "all":
		return AllFaults(seed), nil
	}
	p := FaultPlan{Seed: seed}
	for _, f := range strings.Split(s, ",") {
		switch strings.TrimSpace(f) {
		case "queue-full":
			p.QueueFull = true
		case "delay":
			p.DelayLanes = true
		case "sig-conflict":
			p.SigConflict = true
		case "panic":
			p.Panic = true
		case "timeout":
			p.Timeout = true
		case "torn-state":
			p.TornState = true
		case "torn-delta":
			p.TornDelta = true
		case "shard-skew":
			p.ShardSkew = true
		case "dirty-runtime":
			p.DirtyRuntime = true
		default:
			return p, fmt.Errorf("chaos: unknown fault %q", f)
		}
	}
	return p, nil
}

// Active reports whether any fault is enabled.
func (p FaultPlan) Active() bool {
	return p.QueueFull || p.DelayLanes || p.SigConflict || p.Panic || p.Timeout || p.TornState || p.TornDelta || p.ShardSkew || p.DirtyRuntime
}

// String lists the enabled faults.
func (p FaultPlan) String() string {
	var on []string
	add := func(b bool, n string) {
		if b {
			on = append(on, n)
		}
	}
	add(p.QueueFull, "queue-full")
	add(p.DelayLanes, "delay")
	add(p.SigConflict, "sig-conflict")
	add(p.Panic, "panic")
	add(p.Timeout, "timeout")
	add(p.TornState, "torn-state")
	add(p.TornDelta, "torn-delta")
	add(p.ShardSkew, "shard-skew")
	add(p.DirtyRuntime, "dirty-runtime")
	if len(on) == 0 {
		return "none"
	}
	return strings.Join(on, ",")
}

// Domore applies the plan's engine-configuration faults to DOMORE options.
func (p FaultPlan) Domore(o domore.Options) domore.Options {
	if p.QueueFull {
		o.QueueCap = 1
	}
	return o
}

// Spec applies the plan's engine-configuration faults to a SPECCROSS config.
func (p FaultPlan) Spec(c speccross.Config) speccross.Config {
	if p.QueueFull {
		c.QueueCap = 1
	}
	if p.Timeout {
		c.SpecTimeout = 200 * time.Microsecond
	}
	return c
}

// Hook returns the trace hook implementing the DelayLanes and ShardSkew
// faults, or nil. Installed on a run's recorder, DelayLanes yields the
// emitting thread at a seed-chosen subset of iteration/task starts and
// stall points — cheap, deterministic-by-count schedule perturbation at
// the engines' existing trace points. ShardSkew instead targets one
// scheduler lane of the sharded DOMORE scheduler, yielding hard at every
// one of its shard-chunk completions so the lane is a permanent straggler.
func (p FaultPlan) Hook() trace.Hook {
	if !p.DelayLanes && !p.ShardSkew {
		return nil
	}
	var ctr atomic.Uint64
	seed := p.Seed
	delay := p.DelayLanes
	skewLane := int64(-1)
	if p.ShardSkew {
		skewLane = int64(seed % shardLanes)
	}
	return func(lane int32, k trace.Kind, a, b, c int64) {
		if k == trace.KindShardChunk {
			if a == skewLane {
				for i := 0; i < 8; i++ {
					runtime.Gosched()
				}
			}
			return
		}
		if !delay {
			return
		}
		switch k {
		case trace.KindIterStart, trace.KindTaskStart, trace.KindSchedule, trace.KindStallEnd:
		default:
			return
		}
		h := workloads.Mix64(ctr.Add(1) ^ seed ^ uint64(uint32(lane))<<32)
		if h%4 == 0 {
			for i := uint64(0); i <= h>>8%3; i++ {
				runtime.Gosched()
			}
		}
	}
}

// sentinelAddr is the injected-conflict address: far outside any real
// state index, so it exists only inside signatures.
const sentinelAddr = uint64(1) << 40

// injector wraps a case's kernel (or a mutated view of it), implementing
// the workload-level faults. It satisfies adaptive.Workload, so the same
// wrapper feeds all four engines.
type injector struct {
	inner adaptive.Workload
	k     *epochal.Kernel
	plan  FaultPlan

	conflictA, conflictB  int // adjacent epochs carrying the sentinel write
	panicEpoch, panicTask int
	panicLeft             atomic.Int32
	tornLeft              atomic.Int32 // TornDelta once-latch

	errMsg atomic.Pointer[string]
}

// deltaInjector is an injector over a delta-capable inner workload: it
// forwards the speccross.DeltaWorkload view, so the incremental-checkpoint
// path stays engaged under fault injection (which is what TornDelta
// exercises). TornState runs deliberately stay on the plain injector —
// its whole-state Restore scribble is only repairable by a full-snapshot
// restore, so hiding the delta view there preserves that coverage.
type deltaInjector struct {
	*injector
	dw speccross.DeltaWorkload
}

func (d *deltaInjector) StateLen() int                       { return d.dw.StateLen() }
func (d *deltaInjector) ReadCell(c uint64) int64             { return d.dw.ReadCell(c) }
func (d *deltaInjector) WriteCell(c uint64, v int64)         { d.dw.WriteCell(c, v) }
func (d *deltaInjector) AddrCells(a uint64) (uint64, uint64) { return d.dw.AddrCells(a) }

// Wrap builds the fault-injecting workload view over inner, whose
// underlying state lives in k. With an inactive plan it returns inner
// unchanged.
func (p FaultPlan) Wrap(inner adaptive.Workload, k *epochal.Kernel, nEpochs int) adaptive.Workload {
	if !p.SigConflict && !p.Panic && !p.TornState && !p.TornDelta {
		return inner
	}
	inj := &injector{inner: inner, k: k, plan: p, conflictA: -1, conflictB: -1, panicEpoch: -1}
	if p.SigConflict && nEpochs >= 3 {
		inj.conflictA = 1 + int(p.Seed%uint64(nEpochs-2))
		inj.conflictB = inj.conflictA + 1
	}
	if p.Panic && nEpochs >= 2 {
		inj.panicEpoch = 1 + int((p.Seed/7)%uint64(nEpochs-1))
		inj.panicTask = 0
		inj.panicLeft.Store(1)
	}
	if p.TornDelta && len(k.State) > 0 {
		inj.tornLeft.Store(1)
	}
	if dw, ok := inner.(speccross.DeltaWorkload); ok && dw.StateLen() > 0 && !p.TornState {
		return &deltaInjector{injector: inj, dw: dw}
	}
	return inj
}

// Err reports a fault-layer detection (currently: an aliased snapshot),
// which the differential runner surfaces as a failure.
func (inj *injector) Err() string {
	if s := inj.errMsg.Load(); s != nil {
		return *s
	}
	return ""
}

// InjectorErr extracts the fault-layer error from a wrapped workload.
func InjectorErr(w adaptive.Workload) string {
	switch inj := w.(type) {
	case *injector:
		return inj.Err()
	case *deltaInjector:
		return inj.Err()
	}
	return ""
}

func (inj *injector) Invocations() int         { return inj.inner.Invocations() }
func (inj *injector) Iterations(inv int) int   { return inj.inner.Iterations(inv) }
func (inj *injector) Sequential(inv int)       { inj.inner.Sequential(inv) }
func (inj *injector) Execute(inv, iter, t int) { inj.inner.Execute(inv, iter, t) }
func (inj *injector) Epochs() int              { return inj.inner.Epochs() }
func (inj *injector) Tasks(epoch int) int      { return inj.inner.Tasks(epoch) }
func (inj *injector) ComputeAddr(inv, iter int, buf []uint64) []uint64 {
	return inj.inner.ComputeAddr(inv, iter, buf)
}

// Run injects the speculative-path faults. Both fire only with a live
// signature — i.e. during speculative execution — so barrier re-execution
// and the non-speculative engines are untouched, exactly like real
// faults that only corrupt speculative state.
func (inj *injector) Run(epoch, task, tid int, sig *signature.Signature) {
	if sig != nil {
		if epoch == inj.conflictA || epoch == inj.conflictB {
			sig.Write(sentinelAddr)
		}
		if inj.plan.TornDelta && inj.tornLeft.CompareAndSwap(1, 0) {
			// Tear one tracked write: record the victim cell first (the
			// record-before-write contract puts it in the engine's write
			// log), scribble it directly in the underlying state —
			// bypassing any mutated WriteCell view, the fault is in the
			// speculative execution, not the repair path — then die. The
			// rollback must restore the cell from its base image. Atomic
			// like the kernel's own stores: other lanes run concurrently.
			sig.Write(0)
			atomic.AddInt64(&inj.k.State[0], 0x7e7e7e01)
			panic("chaos: injected torn delta write")
		}
		if epoch == inj.panicEpoch && task == inj.panicTask && inj.panicLeft.CompareAndSwap(1, 0) {
			panic("chaos: injected speculative fault")
		}
	}
	inj.inner.Run(epoch, task, tid, sig)
}

// Snapshot probes checkpoint isolation under TornState: a snapshot that
// aliases the live state would be torn by subsequent speculative writes,
// so the probe briefly perturbs the state and checks the snapshot did
// not follow. Called only at engine quiesce points, per the Workload
// contract.
func (inj *injector) Snapshot() any {
	snap := inj.inner.Snapshot()
	if inj.plan.TornState {
		if sl, ok := snap.([]int64); ok && len(sl) > 0 && len(inj.k.State) > 0 {
			old := inj.k.State[0]
			inj.k.State[0] = old ^ 0x5a5a5a5a
			if sl[0] == old^0x5a5a5a5a {
				msg := "torn-state probe: snapshot aliases live state"
				inj.errMsg.Store(&msg)
			}
			inj.k.State[0] = old
		}
	}
	return snap
}

// Restore simulates a torn speculative state: before handing the
// snapshot to the workload, it scribbles every state cell, so the
// restore path is proven to repair arbitrary corruption rather than
// relying on the abort having left state mostly intact.
func (inj *injector) Restore(snap any) {
	if inj.plan.TornState {
		for i := range inj.k.State {
			inj.k.State[i] += 0x6b6b6b
		}
	}
	inj.inner.Restore(snap)
}
