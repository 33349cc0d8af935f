package adaptive_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/workloads/epochal"
	"crossinv/internal/workloads/phased"
)

// guardedRun runs c under adaptive.Run pinned to e, traced and journaled,
// and checks what holds whatever the guards decided: the windows ran every
// task once, the first window ran its first epoch inline, through e's own
// guard unless e is the barrier, and journaled that guard's verdict and
// rates, one KindInline event names each window's inline tasks, and a
// window that ran wholly inline kept its engine and journaled its ground.
func guardedRun(t *testing.T, c *cells, e adaptive.Engine) adaptive.Stats {
	t.Helper()
	rec := trace.NewRecorder()
	var ds []adaptive.Decision
	st := adaptive.Run(c, adaptive.Config{
		Workers: c.workers, Window: 4, Policy: adaptive.Fixed(e), Start: e, Trace: rec,
		OnDecision: func(d adaptive.Decision) { ds = append(ds, d) },
	})
	c.check(t, e.String())
	var tasks, inline, inlineWindows int64
	for i, s := range st.Samples {
		tasks += s.Tasks
		inline += s.Inline
		if s.Inline > 0 {
			inlineWindows++
		}
		d := ds[i]
		if s.Inline != s.Tasks || s.Tasks == 0 {
			continue
		}
		if d.Next != e || d.Switched || !strings.Contains(d.Reason, "ran inline") {
			t.Errorf("%v: inline window %d decided %v (switched %v) because %q; want its engine kept and the price test's ground",
				e, i, d.Next, d.Switched, d.Reason)
		}
		if i > 0 && !strings.Contains(d.Reason, " guard: ") && (d.InlineNs <= 0 || d.EngineNs < d.InlineNs) {
			t.Errorf("%v: inline window %d compared engine %.0f ns/task with inline %.0f; want both priced, the engine not cheaper",
				e, i, d.EngineNs, d.InlineNs)
		}
	}
	if want := int64(c.epochs * c.tasks); tasks != want {
		t.Fatalf("%v: windows ran %d tasks, region has %d", e, tasks, want)
	}
	if st.Samples[0].Inline == 0 {
		t.Errorf("%v: the first window ran nothing inline", e)
	}
	if d := ds[0]; e != adaptive.EngineBarrier && (!strings.HasPrefix(d.Reason, e.String()+" guard: ") || d.InlineNs <= 0 || d.Next != e) {
		t.Errorf("%v: the first window decided %v because %q at inline %.0f ns/task; want %v kept on its own guard's measured verdict",
			e, d.Next, d.Reason, d.InlineNs, e)
	}
	sum := rec.Summary()
	if sum.Counts[trace.KindInline] != inlineWindows || sum.Sums[trace.KindInline] != inline {
		t.Errorf("%v: %d inline events naming %d tasks; samples say %d windows, %d tasks",
			e, sum.Counts[trace.KindInline], sum.Sums[trace.KindInline], inlineWindows, inline)
	}
	if len(ds) != st.Windows || st.EngineWindows[e] != st.Windows {
		t.Errorf("%v: %d decisions, engine windows %v, for %d windows", e, len(ds), st.EngineWindows, st.Windows)
	}
	return st
}

// TestGuardedStatsCountInlineWindows: on a guarded run the inline work in
// Stats is exactly the inline tasks of the Samples — DOMORE's iterations
// through its own view, and the epoch view's tasks of barrier and SPECCROSS
// windows — and every epoch of a SPECCROSS run was committed, re-executed
// or run inline.
func TestGuardedStatsCountInlineWindows(t *testing.T) {
	const epochs, tasks, nw = 24, 8, 2
	inline := func(st adaptive.Stats) (n int64) {
		for _, s := range st.Samples {
			n += s.Inline
		}
		return n
	}
	st := guardedRun(t, newCells(epochs, tasks, nw), adaptive.EngineDomore)
	if st.Domore.Inline != inline(st) || st.Domore.Iterations != epochs*tasks {
		t.Errorf("domore: Stats count %d of %d iterations inline, samples %d", st.Domore.Inline, st.Domore.Iterations, inline(st))
	}
	// A posted barrier window reports no Stats, so the epoch view's tasks
	// are the inline ones.
	st = guardedRun(t, newCells(epochs, tasks, nw), adaptive.EngineBarrier)
	if st.Spec.Tasks != inline(st) || st.Spec.InlineTasks != inline(st) {
		t.Errorf("barrier: Stats count %d tasks, %d of them inline; samples %d inline", st.Spec.Tasks, st.Spec.InlineTasks, inline(st))
	}
	st = guardedRun(t, newCells(epochs, tasks, nw), adaptive.EngineSpecCross)
	if s := st.Spec; s.Epochs+s.ReexecutedEpochs+s.Inline != epochs || s.Inline == 0 || s.InlineTasks != inline(st) {
		t.Errorf("speccross: %d committed + %d re-executed + %d inline epochs of %d tasks, want %d with the first inline and %d tasks",
			s.Epochs, s.ReexecutedEpochs, s.Inline, s.InlineTasks, epochs, inline(st))
	}
}

// recordingPolicy is ThresholdPolicy keeping every sample it is handed.
type recordingPolicy struct {
	adaptive.ThresholdPolicy
	seen []adaptive.Sample
}

func (p *recordingPolicy) Decide(s adaptive.Sample) (adaptive.Engine, string) {
	p.seen = append(p.seen, s)
	return p.ThresholdPolicy.Decide(s)
}

// TestPolicyReadsOnlyWindowsPostedWhole: adaptive.Run hands the policy the
// sample of every window posted from its first epoch, and of no other. A
// window an engine's guard split ran its first epochs inline, and the
// posted rest saw no dependence into them, so its manifest rate can read
// low on a region whose dependences manifest; a window that ran inline
// carries no signal at all. The costly bodies make DOMORE's guard go
// parallel, so the run has a split window, and, once DOMORE is priced
// below inline, whole ones. Whether it does is a measurement: the test
// checks every run and needs one of up to five to have both, and skips
// when the machine gave none (a guard kept inline, a priced DOMORE lost).
func TestPolicyReadsOnlyWindowsPostedWhole(t *testing.T) {
	const epochs, tasks, nw = 48, 8, 2
	for attempt := 0; attempt < 5; attempt++ {
		c := newCells(epochs, tasks, nw)
		c.fault = func(int, int, *signature.Signature) {
			for t0 := time.Now(); time.Since(t0) < 5*time.Microsecond; {
			}
		}
		p := &recordingPolicy{}
		st := adaptive.Run(c, adaptive.Config{Workers: nw, Window: 4, Policy: p})
		c.check(t, "recorded")
		whole, split := 0, 0
		for _, s := range st.Samples {
			switch {
			case s.Inline == 0:
				whole++
			case s.Inline < s.Tasks:
				split++
			}
		}
		for _, s := range p.seen {
			if s.Inline != 0 {
				t.Errorf("the policy was handed window [%d,%d) of %v, %d of its %d tasks inline", s.StartEpoch, s.EndEpoch, s.Engine, s.Inline, s.Tasks)
			}
		}
		if len(p.seen) != whole {
			t.Errorf("the policy decided %d times over %d windows posted whole", len(p.seen), whole)
		}
		if t.Failed() || split > 0 && len(p.seen) > 0 {
			return
		}
	}
	t.Skip("no run had both a split window and a decision; the guards' measurements kept them apart")
}

// TestColdPhasedSafeSpeculatesOnWholeWindowsOnly: a cold run of the
// registry's PHASED-SAFE at window 6 enters SPECCROSS only after a window
// posted whole, and so never in its first, high-rate phase. That phase's
// lag-4 reuse manifests as dependences into the window's own earlier
// epochs; a window split by DOMORE's guard would show its posted rest none
// of those, read manifest rate 0, and send the policy into a SPECCROSS
// window that misspeculates.
func TestColdPhasedSafeSpeculatesOnWholeWindowsOnly(t *testing.T) {
	k := phased.NewSafe(1)
	var ds []adaptive.Decision
	st := adaptive.Run(k, adaptive.Config{Workers: 2, Window: 6, OnDecision: func(d adaptive.Decision) { ds = append(ds, d) }})
	ref := phased.NewSafe(1)
	ref.RunSequential()
	if k.Checksum() != ref.Checksum() {
		t.Fatalf("checksum %x, sequential %x", k.Checksum(), ref.Checksum())
	}
	for _, d := range ds {
		if s := d.Sample; s.Inline > 0 && d.Switched {
			t.Errorf("window %d [%d,%d) ran %d of %d tasks inline, then switched to %v because %q",
				d.Window, s.StartEpoch, s.EndEpoch, s.Inline, s.Tasks, d.Next, d.Reason)
		}
	}
	high := phased.PhaseBounds(1)[1]
	for i, s := range st.Samples {
		if s.Engine == adaptive.EngineSpecCross && s.StartEpoch < high {
			t.Errorf("window %d [%d,%d) of the high-rate phase ran SPECCROSS (misspeculated %v)",
				i, s.StartEpoch, s.EndEpoch, s.Misspeculated)
			break
		}
	}
}

// TestGuardKeepsPostingAWinningEngine: with bodies far costlier than a
// window's wake-up, DOMORE's posted windows beat inline and the guard keeps
// posting them, save the first window's probe and the re-pricing inline
// windows, which cost at most 1/engine.ProbeShare of the run. The decision
// is a measurement: on a shared machine whose second processor is busy
// elsewhere a posted window gains nothing and is priced accordingly, so the
// test asks for one such run in ten, a while apart.
func TestGuardKeepsPostingAWinningEngine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a posted window cannot beat inline on one processor")
	}
	if raceflag.Enabled {
		t.Skip("the race detector slows the engine's synchronisation, not the spinning bodies, so it prices the engine")
	}
	const epochs, tasks, nw = 24, 8, 2
	defer engine.CloseIdle()
	for attempt := 0; attempt < 10; attempt++ {
		time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
		c := newCells(epochs, tasks, nw)
		c.fault = func(int, int, *signature.Signature) {
			for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
			}
		}
		// A runtime of its own, and the garbage of earlier runs collected
		// now rather than during a priced window.
		engine.CloseIdle()
		runtime.GC()
		st := adaptive.Run(c, adaptive.Config{Workers: nw, Window: 4, Policy: adaptive.Fixed(adaptive.EngineDomore)})
		c.check(t, "domore")
		if st.Domore.Inline*2 < epochs*tasks {
			return
		}
	}
	t.Fatal("DOMORE with 20 µs bodies never ran most of a region posted in ten runs")
}

// TestGuardedPhasedNearDomore is the in-process form of the adaptive
// controller's claim on the registry's PHASED-SAFE: under adaptive.Run,
// best of five, it takes at most 1.5× what the guarded domore.Run does.
// Timing under the race detector means nothing, and a disturbed machine
// can miss once, so the test retries.
func TestGuardedPhasedNearDomore(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("timings under the race detector are not the engines'")
	}
	const workers = 2
	best := func(run func(k *epochal.Kernel)) time.Duration {
		b := time.Duration(1 << 62)
		for range 5 {
			k := phased.NewSafe(1)
			t0 := time.Now()
			run(k)
			b = min(b, time.Since(t0))
		}
		return b
	}
	var a, d time.Duration
	for attempt := 0; attempt < 5; attempt++ {
		a = best(func(k *epochal.Kernel) { adaptive.Run(k, adaptive.Config{Workers: workers}) })
		d = best(func(k *epochal.Kernel) { domore.Run(k, domore.Options{Workers: workers}) })
		if float64(a) <= 1.5*float64(d) {
			t.Logf("PHASED-SAFE: adaptive.Run %v, domore.Run %v", a, d)
			return
		}
	}
	t.Fatalf("PHASED-SAFE: adaptive.Run took %v, over 1.5× domore.Run's %v", a, d)
}
