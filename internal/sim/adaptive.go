package sim

import (
	"fmt"

	"crossinv/internal/runtime/adaptive"
)

// This file models the adaptive hybrid runtime (internal/runtime/adaptive)
// in virtual time, so the 2–24-core scalability figures can include the
// engine-selecting controller next to the static engines. The simulation
// drives the *same* Policy implementations the real controller uses: each
// window of epochs is simulated under the current engine, the monitors'
// signals are derived from the window's trace (manifest-dependence rate for
// DOMORE windows; misspeculation for SPECCROSS windows, decided by the
// §4.4 profitability rule on the window's observed minimum dependence
// distance), and the policy picks the next window's engine.

// AdaptiveConfig tunes a simulated adaptive execution.
type AdaptiveConfig struct {
	// Threads is the total simulated core budget, matching the figures'
	// x-axis: barrier windows use Threads workers; DOMORE and SPECCROSS
	// windows use Threads-1 workers plus their scheduler/checker thread.
	Threads int
	// Window is the monitoring window in epochs (default 32).
	Window int
	// Policy picks each next window's engine (default adaptive.NewThreshold).
	Policy adaptive.Policy
	// Start is the first window's engine (default adaptive.EngineDomore).
	Start adaptive.Engine
	// Gate is the profitability threshold in tasks (§4.4): a SPECCROSS
	// window whose minimum cross-epoch dependence distance is below Gate
	// overlaps a conflicting pair and misspeculates — it pays the full
	// speculative attempt, rollback, and barrier re-execution. Windows at
	// or above Gate run misspeculation-free. Default Threads-1 (speculation
	// is profitable only when the distance covers the worker count).
	Gate int64
	// SpecDistance bounds the speculative range in clean windows (the
	// profiled distance the real runtime gates with); 0 means unbounded.
	SpecDistance int64
	// SwitchCost is the extra quiesce cost paid at each engine change — the
	// drain barrier leaving DOMORE or the checkpoint barrier leaving
	// SPECCROSS. Default BarrierBase + BarrierPerThread·Threads.
	SwitchCost int64
}

// WindowDecision logs one simulated window: what ran, what the monitors
// saw, and what it cost.
type WindowDecision struct {
	// Start and End delimit the window's epochs, [Start, End).
	Start, End int
	// Engine is the engine that executed the window.
	Engine adaptive.Engine
	// Makespan is the window's virtual-time cost (switch cost excluded).
	Makespan int64
	// ManifestRate is the window's manifest-dependence rate (DOMORE).
	ManifestRate float64
	// Misspeculated reports a window below the profitability gate (SPECCROSS).
	Misspeculated bool
}

// AdaptiveResult extends Result with the controller's decision log.
type AdaptiveResult struct {
	Result
	// Windows is the per-window log in execution order.
	Windows []WindowDecision
	// Switches counts engine changes at window boundaries.
	Switches int
	// EngineWindows counts windows per engine, indexed by adaptive.Engine.
	EngineWindows [adaptive.NumEngines]int
}

// SimAdaptive simulates the adaptive controller over the trace. Windows
// execute back to back — each window starts from a full quiesce, exactly
// like the real controller's window boundaries — so the makespan is the
// sum of window makespans plus switch costs.
func SimAdaptive(tr *Trace, cfg AdaptiveConfig, m CostModel) AdaptiveResult {
	if cfg.Threads <= 1 {
		panic(fmt.Sprintf("sim: adaptive needs at least 2 threads, got %d", cfg.Threads))
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.Policy == nil {
		cfg.Policy = adaptive.NewThreshold()
	}
	if cfg.Gate == 0 {
		cfg.Gate = int64(cfg.Threads - 1)
	}
	if cfg.SwitchCost == 0 {
		cfg.SwitchCost = m.BarrierBase + m.BarrierPerThread*int64(cfg.Threads)
	}

	var res AdaptiveResult
	res.Threads = cfg.Threads
	engine := cfg.Start
	workers := cfg.Threads - 1

	for lo := 0; lo < len(tr.Epochs); {
		hi := lo + cfg.Window
		if hi > len(tr.Epochs) {
			hi = len(tr.Epochs)
		}
		sub := &Trace{Epochs: tr.Epochs[lo:hi]}
		dec := WindowDecision{Start: lo, End: hi, Engine: engine}
		sample := adaptive.Sample{Engine: engine, StartEpoch: lo, EndEpoch: hi, Tasks: int64(sub.Tasks())}

		var r Result
		switch engine {
		case adaptive.EngineBarrier:
			r = SimBarrier(sub, cfg.Threads, m)
		case adaptive.EngineDomore:
			r = SimDomore(sub, workers, m)
			dec.ManifestRate = manifestRate(sub, workers)
			sample.ManifestRate = dec.ManifestRate
		case adaptive.EngineSpecCross:
			sc := SpecConfig{Workers: workers, CheckpointEvery: hi - lo, SpecDistance: cfg.SpecDistance}
			if minConflictDistance(sub) < cfg.Gate {
				// Below the profitability threshold: a conflicting pair
				// overlaps, the checker flags it, the window rolls back and
				// re-executes with barriers (modeled by the injected-fault
				// path of SimSpecCross).
				sc.MisspecEpoch = 1
				dec.Misspeculated = true
				sample.Misspeculated = true
			}
			r = SimSpecCross(sub, sc, m)
		default:
			panic(fmt.Sprintf("sim: unknown engine %v", engine))
		}

		dec.Makespan = r.Makespan
		res.Makespan += r.Makespan
		res.Idle += r.Idle
		res.Stalls += r.Stalls
		res.Windows = append(res.Windows, dec)
		res.EngineWindows[engine]++

		next := cfg.Policy.Decide(sample)
		if next < 0 || next >= adaptive.NumEngines {
			panic(fmt.Sprintf("sim: policy returned unknown engine %v", next))
		}
		if next != engine {
			res.Switches++
			res.Makespan += cfg.SwitchCost
		}
		engine = next
		lo = hi
	}
	return res
}

// manifestRate derives the DOMORE monitor's signal from a window's trace:
// synchronization conditions forwarded per iteration, counting — like the
// scheduler of Algorithm 1 — one condition per accessed address whose last
// conflicting toucher (write on either side) ran on a different worker.
// The window starts from a fresh shadow store, as the real controller's
// DOMORE windows do.
func manifestRate(tr *Trace, workers int) float64 {
	type touch struct {
		lastWriter  int // worker of last writing toucher, -1 if none
		lastReader  int // worker of last reading toucher, -1 if none
		multiReader bool
	}
	last := map[uint64]*touch{}
	conds, tasks := int64(0), int64(0)
	iter := 0
	counted := map[uint64]bool{}
	for _, e := range tr.Epochs {
		for _, task := range e.Tasks {
			w := iter % workers
			iter++
			tasks++
			// At most one condition per (task, address): the scheduler
			// forwards one wait per conflicting shadow entry, and a task
			// reading and writing the same cell shares that entry.
			clear(counted)
			for _, a := range task.Reads {
				if t, ok := last[a]; ok && t.lastWriter >= 0 && t.lastWriter != w && !counted[a] {
					counted[a] = true
					conds++
				}
			}
			for _, a := range task.Writes {
				if t, ok := last[a]; ok && !counted[a] {
					if (t.lastWriter >= 0 && t.lastWriter != w) ||
						(t.lastReader >= 0 && (t.lastReader != w || t.multiReader)) {
						counted[a] = true
						conds++
					}
				}
			}
			for _, a := range task.Writes {
				t := last[a]
				if t == nil {
					t = &touch{lastWriter: -1, lastReader: -1}
					last[a] = t
				}
				t.lastWriter = w
				t.lastReader, t.multiReader = -1, false
			}
			for _, a := range task.Reads {
				t := last[a]
				if t == nil {
					t = &touch{lastWriter: -1, lastReader: -1}
					last[a] = t
				}
				if t.lastReader >= 0 && t.lastReader != w {
					t.multiReader = true
				}
				t.lastReader = w
			}
		}
	}
	if tasks == 0 {
		return 0
	}
	return float64(conds) / float64(tasks)
}

// NoConflictDistance is minConflictDistance's no-conflict sentinel, large
// enough to exceed any profitability gate.
const NoConflictDistance = int64(1) << 62

// minConflictDistance scans a window's trace for the minimum distance (in
// tasks) between two cross-epoch conflicting accesses — the quantity the
// §4.4 profiler measures. Returns NoConflictDistance when no cross-epoch
// conflict exists in the window.
func minConflictDistance(tr *Trace) int64 {
	type touch struct {
		writeIdx, readIdx     int64 // global index of last toucher per side, -1 if none
		writeEpoch, readEpoch int
	}
	last := map[uint64]*touch{}
	best := NoConflictDistance
	g := int64(0)
	upd := func(d int64) {
		if d < best {
			best = d
		}
	}
	for ei, e := range tr.Epochs {
		for _, task := range e.Tasks {
			for _, a := range task.Reads {
				if t, ok := last[a]; ok && t.writeIdx >= 0 && t.writeEpoch != ei {
					upd(g - t.writeIdx)
				}
			}
			for _, a := range task.Writes {
				if t, ok := last[a]; ok {
					if t.writeIdx >= 0 && t.writeEpoch != ei {
						upd(g - t.writeIdx)
					}
					if t.readIdx >= 0 && t.readEpoch != ei {
						upd(g - t.readIdx)
					}
				}
			}
			for _, a := range task.Writes {
				t := last[a]
				if t == nil {
					t = &touch{writeIdx: -1, readIdx: -1}
					last[a] = t
				}
				t.writeIdx, t.writeEpoch = g, ei
			}
			for _, a := range task.Reads {
				t := last[a]
				if t == nil {
					t = &touch{writeIdx: -1, readIdx: -1}
					last[a] = t
				}
				t.readIdx, t.readEpoch = g, ei
			}
			g++
		}
	}
	return best
}
