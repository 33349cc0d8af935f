package main

import (
	"fmt"

	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/sim"
	"crossinv/internal/workloads/phased"
)

// figA1 regenerates Figure A.1 (this reproduction's own extension, not a
// paper figure): the adaptive hybrid runtime on the phase-shifting
// synthetic workload. The workload's manifest-dependence rate drifts
// mid-run — high (DOMORE territory), then low (SPECCROSS territory), then
// high again — so no static engine choice wins end-to-end. The controller
// monitors each window and switches engines at window boundaries; the
// figure shows it tracking the per-phase winner across the 2–24 core
// sweep. See EXPERIMENTS.md "Figure A.1".
func figA1() {
	header("Figure A.1 — adaptive engine selection on the phase-shifting workload")
	m := sim.DefaultModel()
	tr := traceOf("PHASED")
	seq := tr.SeqTime()
	bounds := phased.PhaseBounds(*scale)

	adaptiveAt := func(th int) sim.AdaptiveResult {
		return sim.SimAdaptive(tr, sim.AdaptiveConfig{Threads: th, Window: phased.Window}, m)
	}
	staticSpec := func(t *sim.Trace, th int) sim.AdaptiveResult {
		// The static SPECCROSS run goes through the same windowed path
		// (checkpoint segments of Window epochs), so its misspeculating
		// high-phase windows pay rollback and barrier re-execution.
		return sim.SimAdaptive(t, sim.AdaptiveConfig{
			Threads: th, Window: phased.Window,
			Policy: adaptive.Fixed(adaptive.EngineSpecCross),
			Start:  adaptive.EngineSpecCross,
		}, m)
	}

	fmt.Printf("\n(%s: %d epochs x %d tasks, phases high/low/high at %v)\n",
		tr.Name, len(tr.Epochs), phased.TasksPerEpoch, bounds[:phased.NumPhases])
	fmt.Printf("%8s %10s %10s %14s %10s %9s\n",
		"threads", "adaptive", "DOMORE", "SPECCROSS", "barrier", "switches")
	for _, th := range threadSweep() {
		ad := adaptiveAt(th)
		dom := sim.SimDomore(tr, th-1, m)
		spec := staticSpec(tr, th)
		bar := sim.SimBarrier(tr, th, m)
		fmt.Printf("%8d %9.2fx %9.2fx %13.2fx %9.2fx %9d\n",
			th, ad.Speedup(seq), dom.Speedup(seq), spec.Speedup(seq), bar.Speedup(seq), ad.Switches)
	}

	// Per-phase breakdown at the top budget: the acceptance bar is staying
	// within 10% of the best static engine in every phase.
	th := *maxThreads
	res := adaptiveAt(th)
	fmt.Printf("\nper-phase at %d threads (virtual time; switches charged to their phase):\n", th)
	fmt.Printf("%8s %6s %14s %20s %8s\n", "phase", "kind", "adaptive", "best static", "ratio")
	phaseMk := make([]int64, phased.NumPhases)
	prev := adaptive.Engine(-1)
	swCost := m.BarrierBase + m.BarrierPerThread*int64(th)
	for _, w := range res.Windows {
		p := 0
		for p+1 < phased.NumPhases && w.Start >= bounds[p+1] {
			p++
		}
		phaseMk[p] += w.Makespan
		if prev >= 0 && w.Engine != prev {
			phaseMk[p] += swCost
		}
		prev = w.Engine
	}
	for p := 0; p < phased.NumPhases; p++ {
		sub := &sim.Trace{Name: tr.Name, Epochs: tr.Epochs[bounds[p]:bounds[p+1]]}
		best := int64(1) << 62
		bestEng := adaptive.EngineDomore
		for eng, mk := range map[adaptive.Engine]int64{
			adaptive.EngineBarrier:   sim.SimBarrier(sub, th, m).Makespan,
			adaptive.EngineDomore:    sim.SimDomore(sub, th-1, m).Makespan,
			adaptive.EngineSpecCross: staticSpec(sub, th).Makespan,
		} {
			if mk < best {
				best, bestEng = mk, eng
			}
		}
		kind := "high"
		if p%2 == 1 {
			kind = "low"
		}
		fmt.Printf("%8d %6s %14d %9d (%-10s %7.3f\n",
			p, kind, phaseMk[p], best, bestEng.String()+")", float64(phaseMk[p])/float64(best))
	}
	fmt.Printf("\nengine windows [domore speccross barrier]: %v, %d switches\n",
		res.EngineWindows[:adaptive.EngineBarrier+1], res.Switches)
	fmt.Println("acceptance: adaptive within 10% of the best static engine per phase,")
	fmt.Println("beating both all-DOMORE and all-SPECCROSS end-to-end")
}
