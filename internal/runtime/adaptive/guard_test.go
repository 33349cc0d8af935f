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
// and checks what holds whatever the price test decided: the windows ran
// every task once, the first window ran its first epoch inline, one
// KindInline event names each window's inline tasks, and a window that ran
// wholly inline kept its engine and journaled the price test's ground.
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
		if i > 0 && (d.InlineNs <= 0 || d.EngineNs < d.InlineNs) {
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
// through its own view, and the epoch view's tasks of barrier windows — and
// every epoch of a SPECCROSS run was committed, re-executed or run inline.
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
	if st.Spec.Tasks != inline(st) {
		t.Errorf("barrier: Stats count %d inline tasks, samples %d", st.Spec.Tasks, inline(st))
	}
	st = guardedRun(t, newCells(epochs, tasks, nw), adaptive.EngineSpecCross)
	if s := st.Spec; s.Epochs+s.ReexecutedEpochs+s.Inline != epochs || s.Inline == 0 {
		t.Errorf("speccross: %d committed + %d re-executed + %d inline epochs, want %d with the first inline",
			s.Epochs, s.ReexecutedEpochs, s.Inline, epochs)
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
