package main

import (
	"fmt"
	"time"

	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/blackscholes"
	"crossinv/internal/workloads/cg"
	"crossinv/internal/workloads/eclat"
	"crossinv/internal/workloads/epochal"
	"crossinv/internal/workloads/equake"
	"crossinv/internal/workloads/fdtd"
	"crossinv/internal/workloads/fluidanimate"
	"crossinv/internal/workloads/jacobi"
	"crossinv/internal/workloads/llubench"
	"crossinv/internal/workloads/loopdep"
	"crossinv/internal/workloads/phased"
	"crossinv/internal/workloads/symm"
)

// engineProg is one Go-level program of the engine workloads: a registry
// program cut to a frozen number of invocations, or a kernel built here.
type engineProg struct {
	name string
	// build constructs the instance at its frozen size.
	build func() workloads.Instance
	// rebuild marks programs whose run-time state Restore does not cover
	// (FLUIDANIMATE's join counter): they are built afresh per operation.
	rebuild bool
	exact   bool // signature scheme, from the registry entry

	inst workloads.Instance
	init any // Snapshot of the initial state
	want uint64
	// tasksPerEpoch turns re-executed epochs into re-executed tasks.
	tasksPerEpoch float64
	dist          int64 // profiled speculative distance (engine.sparse)
}

// resettable is the part of speccross.Workload fresh uses.
type resettable interface {
	Snapshot() any
	Restore(any)
}

// fresh returns the instance in its initial state.
func (p *engineProg) fresh() workloads.Instance {
	if p.rebuild || p.inst == nil {
		p.inst = p.build()
		if r, ok := p.inst.(resettable); ok && !p.rebuild {
			p.init = r.Snapshot()
		}
		return p.inst
	}
	p.inst.(resettable).Restore(p.init)
	return p.inst
}

func (p *engineProg) kind() signature.Kind {
	if p.exact {
		return signature.Exact
	}
	return signature.Range
}

// reference runs the benchmark's sequential reference and keeps its
// checksum: every engine result is compared with it.
func (p *engineProg) reference() {
	inst := p.fresh()
	inst.RunSequential()
	p.want = inst.Checksum()
	sw := inst.(speccross.Workload)
	tasks := 0
	for e := 0; e < sw.Epochs(); e++ {
		tasks += sw.Tasks(e)
	}
	p.tasksPerEpoch = ratio(float64(tasks), float64(sw.Epochs()))
}

// cut truncates a registry kernel to a frozen number of invocations, so one
// execution takes milliseconds and a window holds enough samples. The
// counts are frozen constants of the benchmark (README.md).
func cut(k *epochal.Kernel, epochs int) *epochal.Kernel {
	if epochs > k.NumEpochs {
		panic(fmt.Sprintf("benchmark: %s has only %d epochs, cannot cut to %d", k.BenchName, k.NumEpochs, epochs))
	}
	k.NumEpochs = epochs
	return k
}

// denseProgs are the DomoreOK registry programs of engine.dense.
func denseProgs() []*engineProg {
	return []*engineProg{
		{name: "CG", build: func() workloads.Instance { g := cg.New(1); g.Invs = 700; return g }},
		{name: "ECLAT", build: func() workloads.Instance { return cut(eclat.New(1), 200) }},
		{name: "BLACKSCHOLES", build: func() workloads.Instance { return cut(blackscholes.New(1), 60) }},
		{name: "LLUBENCH", build: func() workloads.Instance { return cut(llubench.New(1), 80) }},
		{name: "SYMM", build: func() workloads.Instance { return cut(symm.New(1), 150) }},
		{name: "FLUIDANIMATE", exact: true, rebuild: true,
			build: func() workloads.Instance { f := fluidanimate.New(1); f.Frames = 1; return f }},
	}
}

// sparseProgs are the SpecOK registry programs of engine.sparse.
func sparseProgs() []*engineProg {
	return []*engineProg{
		{name: "JACOBI", build: func() workloads.Instance { return cut(jacobi.New(1), 16) }},
		{name: "FDTD", build: func() workloads.Instance { return cut(fdtd.New(1), 12) }},
		{name: "EQUAKE", exact: true, build: func() workloads.Instance { return cut(equake.New(1), 30) }},
		{name: "LOOPDEP", build: func() workloads.Instance { return cut(loopdep.New(1), 8) }},
		{name: "SYMM", build: func() workloads.Instance { return cut(symm.New(1), 60) }},
		{name: "LLUBENCH", build: func() workloads.Instance { return cut(llubench.New(1), 30) }},
	}
}

// engineRow is one operation kind: a program under one engine
// configuration.
type engineRow struct {
	name string
	prog *engineProg
	// run executes the engine on inst. rec is nil on the measured pass; on
	// the traced pass it is a reset recorder and tot receives the stats.
	run func(inst workloads.Instance, rec *trace.Recorder, tot *engineTotals)
}

// roundOrder draws, per round, the order in which a single driver runs the
// round's n operations: a pure function of (seed, round).
type roundOrder struct {
	seed  uint64
	round int
	perm  []int
}

// at returns which of the n operations runs at position seq.
func (o *roundOrder) at(seq, n int) int {
	if round := seq / n; o.perm == nil || round != o.round {
		o.round = round
		o.perm = newRng(o.seed ^ uint64(round+1)*0x9e3779b97f4a7c15).perm(n)
	}
	return o.perm[seq%n]
}

// engineInstance drives a fixed set of rows: one closed-loop driver, every
// round runs every row once in a seed-drawn order.
type engineInstance struct {
	cfg   *config
	progs []*engineProg
	rows  []engineRow
	order roundOrder

	rec    *trace.Recorder
	totals *engineTotals
	log    *rowLog
}

func newEngineInstance(cfg *config, progs []*engineProg, rows []engineRow) *engineInstance {
	e := &engineInstance{cfg: cfg, progs: progs, rows: rows, order: roundOrder{seed: cfg.seed}, log: newRowLog()}
	for _, p := range progs {
		p.reference()
	}
	if cfg.traced() {
		e.rec = trace.NewRecorder()
		e.totals = &engineTotals{}
	}
	return e
}

func (e *engineInstance) clients() int  { return 1 }
func (e *engineInstance) roundOps() int { return len(e.rows) }
func (e *engineInstance) close()        {}

func (e *engineInstance) do(_, seq int) (time.Duration, bool) {
	row := e.rows[e.order.at(seq, len(e.rows))]
	inst := row.prog.fresh()
	if e.rec != nil {
		e.rec.Reset()
	}
	sp := e.cfg.tr.begin(row.name, e.cfg.tr.op(), 0)
	t0 := time.Now()
	row.run(inst, e.rec, e.totals)
	lat := time.Since(t0)
	sp.end()
	e.log.add(row.name, lat)
	return lat, inst.Checksum() == row.prog.want
}

// finish reports the rows and, on the traced pass, the runtime layers and
// the sequential and barrier baselines the paper's speed-ups are taken
// against (measured here, after the window, with no recorder attached).
func (e *engineInstance) finish(out *layerSet) (int, error) {
	out.rows = e.log.results()
	if !e.cfg.traced() {
		return 0, nil
	}
	e.totals.report(out)
	const reps = 3
	timeIt := func(f func()) float64 {
		var xs []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			f()
			xs = append(xs, ms(time.Since(t0)))
		}
		return median(xs)
	}
	var seqMs, barMs, vsSeq, vsBar []float64
	base := map[*engineProg][2]float64{}
	for _, p := range e.progs {
		p := p
		var inst workloads.Instance
		seq := timeIt(func() { inst = p.fresh(); inst.RunSequential() })
		bar := timeIt(func() {
			inst = p.fresh()
			speccross.RunBarriers(inst.(speccross.Workload), e.cfg.procs)
		})
		if inst.Checksum() != p.want {
			return 0, fmt.Errorf("%s: barrier baseline checksum mismatch", p.name)
		}
		base[p] = [2]float64{seq, bar}
		seqMs, barMs = append(seqMs, seq), append(barMs, bar)
		out.rows = append(out.rows, rowResult{Row: p.name + "/seq", Ops: reps, MedianMs: seq},
			rowResult{Row: p.name + "/barrier", Ops: reps, MedianMs: bar})
	}
	for _, row := range e.rows {
		row := row
		eng := timeIt(func() { row.run(row.prog.fresh(), nil, nil) })
		vsSeq = append(vsSeq, ratio(base[row.prog][0], eng))
		vsBar = append(vsBar, ratio(base[row.prog][1], eng))
	}
	out.set("baseline.seq_ms", geomean(seqMs))
	out.set("baseline.barrier_ms", geomean(barMs))
	out.set("baseline.speedup_vs_seq", geomean(vsSeq))
	out.set("baseline.speedup_vs_barrier", geomean(vsBar))
	return 0, nil
}

// --- engine.dense ---

func setupDense(cfg *config) (instance, error) {
	progs := denseProgs()
	if cfg.smoke {
		progs = progs[:2]
	}
	var rows []engineRow
	for _, p := range progs {
		rows = append(rows,
			engineRow{name: p.name + "/domore", prog: p, run: func(inst workloads.Instance, rec *trace.Recorder, tot *engineTotals) {
				t0 := time.Now()
				st := domore.Run(inst.(domore.Workload), domore.Options{Workers: cfg.procs, Trace: rec})
				if tot != nil {
					tot.addDomore(st, time.Since(t0), rec)
				}
			}},
			engineRow{name: p.name + "/domore-sharded", prog: p, run: func(inst workloads.Instance, rec *trace.Recorder, tot *engineTotals) {
				t0 := time.Now()
				st := domore.RunSharded(inst.(domore.Workload), domore.Options{Workers: cfg.procs, Lanes: cfg.procs, Trace: rec})
				if tot != nil {
					tot.addDomore(st, time.Since(t0), rec)
				}
			}})
	}
	return newEngineInstance(cfg, progs, rows), nil
}

// --- engine.sparse ---

// sparseCheckpointEvery makes every execution cross several checkpoint
// boundaries, so checkpoint cost is part of what the workload measures.
const sparseCheckpointEvery = 4

func setupSparse(cfg *config) (instance, error) {
	progs := sparseProgs()
	if cfg.smoke {
		progs = progs[:2]
	}
	var rows []engineRow
	for _, p := range progs {
		p := p
		// §4.4: profile once in set-up; the distance gates every run.
		sp := cfg.tr.begin("speccross.Profile", cfg.tr.op(), 0)
		prof := speccross.Profile(p.build().(speccross.Workload), p.kind(), 8)
		sp.end()
		dist, profitable := prof.Recommended(cfg.procs)
		if !profitable {
			return nil, fmt.Errorf("%s: profile finds speculation unprofitable at %d workers", p.name, cfg.procs)
		}
		p.dist = dist
		run := func(misspecEpoch int) func(workloads.Instance, *trace.Recorder, *engineTotals) {
			return func(inst workloads.Instance, rec *trace.Recorder, tot *engineTotals) {
				st := speccross.Run(inst.(speccross.Workload), speccross.Config{
					Workers: cfg.procs, SigKind: p.kind(), SpecDistance: p.dist,
					CheckpointEvery: sparseCheckpointEvery, ForceMisspecEpoch: misspecEpoch, Trace: rec,
				})
				if tot != nil {
					tot.addSpec(st, p.tasksPerEpoch, rec)
				}
			}
		}
		epochs := p.build().(speccross.Workload).Epochs()
		rows = append(rows,
			engineRow{name: p.name + "/speccross", prog: p, run: run(0)},
			engineRow{name: p.name + "/speccross-misspec", prog: p, run: run(epochs / 2)})
	}
	return newEngineInstance(cfg, progs, rows), nil
}

// --- engine.phased ---

// The phase kernel: dense phase / sparse phase / dense phase, every task
// one read-modify-write of a seed-drawn cell with real spin before the
// store. In a dense phase most tasks reuse a cell the previous epoch wrote
// (close variant: speculation across the boundary misspeculates) or the
// epoch phaseLag back (safe variant: a gated speculative window never
// overlaps a conflict); in the sparse phase 2% reuse a cell phaseLag epochs
// back. All of these are frozen constants.
const (
	phaseTasks   = 16
	phaseEpochs  = 24 // per phase
	phaseWindow  = 6  // adaptive monitoring window; divides phaseEpochs
	phaseLag     = 4
	phaseSpin    = 96
	phaseSpace   = 1 << 14
	phaseDense   = 724 // reuse rate per thousand tasks, as CG's 72.4%
	phaseSparse  = 20
	phaseSafeGap = phaseLag*phaseTasks - 1 // minimum conflict distance of the safe variant, in tasks
)

func phaseKernel(name string, seed uint64, closeConflicts bool) *epochal.Kernel {
	const epochs = 3 * phaseEpochs
	k := &epochal.Kernel{BenchName: name, State: make([]int64, phaseSpace), NumEpochs: epochs, SeqCost: 150}
	r := newRng(seed)
	addr := make([]uint64, epochs*phaseTasks)
	at := func(e, t int) uint64 { return addr[e*phaseTasks+t] }
	lastUsed := map[uint64]int{}
	for e := 0; e < epochs; e++ {
		dense := (e/phaseEpochs)%2 == 0
		inEpoch := map[uint64]bool{}
		for t := 0; t < phaseTasks; t++ {
			var a uint64
			reused := false
			switch {
			case e < phaseLag || e%phaseEpochs == 0:
			case dense && closeConflicts && r.intn(1000) < phaseDense:
				a, reused = at(e-1, (t+1)%phaseTasks), true
			case dense && !closeConflicts && r.intn(1000) < phaseDense:
				a, reused = at(e-phaseLag, (t+1)%phaseTasks), true
			case !dense && r.intn(1000) < phaseSparse:
				a, reused = at(e-phaseLag, (t+1)%phaseTasks), true
			}
			if reused && inEpoch[a] {
				reused = false // tasks of one epoch stay independent
			}
			for !reused {
				a = uint64(r.intn(phaseSpace))
				if last, ok := lastUsed[a]; !inEpoch[a] && (!ok || e-last > 3*phaseLag) {
					break
				}
			}
			addr[e*phaseTasks+t] = a
			lastUsed[a] = e
			inEpoch[a] = true
		}
	}
	k.TasksOf = func(int) int { return phaseTasks }
	k.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		a := at(epoch, task)
		return append(reads, a), append(writes, a)
	}
	k.Update = func(epoch, task int) {
		g := epoch*phaseTasks + task
		a := addr[g]
		x := uint64(k.State[a]) + uint64(g)
		for i := 0; i < phaseSpin; i++ {
			x = workloads.Mix64(x)
		}
		k.State[a] = int64(x)
	}
	k.TaskCost = func(int, int) int64 { return 3000 }
	k.AddrSpan = epochal.IdentitySpan
	return k
}

// phasedProg pairs a phase-changing program with what a static analysis
// would know about it: the facts the seeded rows start from.
type phasedProg struct {
	engineProg
	window    int
	factClass string
	factDist  int64
	// staticDist gates the static speccross reference row (0: unbounded).
	staticDist int64
}

// adaptive runs the program under the adaptive controller, cold or seeded
// from the program's facts.
func (p *phasedProg) adaptive(inst workloads.Instance, workers int, seeded bool, rec *trace.Recorder) adaptive.Stats {
	acfg := adaptive.Config{Workers: workers, Window: p.window, Trace: rec}
	if seeded {
		acfg.SeedFromFacts(p.factClass, p.factDist)
	}
	return adaptive.Run(inst.(adaptive.Workload), acfg)
}

func setupPhased(cfg *config) (instance, error) {
	progs := []*phasedProg{
		{engineProg: engineProg{name: "PHASE-CLOSE", build: func() workloads.Instance {
			return phaseKernel("PHASE-CLOSE", cfg.seed, true)
		}}, window: phaseWindow, factClass: "unknown"},
		{engineProg: engineProg{name: "PHASE-SAFE", build: func() workloads.Instance {
			return phaseKernel("PHASE-SAFE", cfg.seed+1, false)
		}}, window: phaseWindow, factClass: "forward-only", factDist: phaseSafeGap, staticDist: phaseSafeGap},
	}
	var eprogs []*engineProg
	var rows []engineRow
	for _, p := range progs {
		p := p
		eprogs = append(eprogs, &p.engineProg)
		run := func(seeded bool) func(workloads.Instance, *trace.Recorder, *engineTotals) {
			return func(inst workloads.Instance, rec *trace.Recorder, tot *engineTotals) {
				st := p.adaptive(inst, cfg.procs, seeded, rec)
				if tot != nil {
					tot.addAdaptive(st, p.tasksPerEpoch, rec.Events())
				}
			}
		}
		rows = append(rows,
			engineRow{name: p.name + "/adaptive-cold", prog: &p.engineProg, run: run(false)},
			engineRow{name: p.name + "/adaptive-seeded", prog: &p.engineProg, run: run(true)})
	}
	inst := &phasedInstance{engineInstance: newEngineInstance(cfg, eprogs, rows), progs: progs}
	return inst, nil
}

// namedRun is one untimed supporting row of engine.phased.
type namedRun struct {
	name string
	run  func(workloads.Instance)
}

// phasedInstance adds the static-engine reference rows to finish: the
// single-engine times the adaptive rows are read against.
type phasedInstance struct {
	*engineInstance
	progs []*phasedProg
}

func (p *phasedInstance) finish(out *layerSet) (int, error) {
	if _, err := p.engineInstance.finish(out); err != nil || !p.cfg.traced() {
		return 0, err
	}
	// The registry's own phase-shifting program is two orders of magnitude
	// longer than the kernels built here (2700 epochs of 46 tasks), too long
	// for a timed row of a ten-second window; it is measured here instead.
	progs := p.progs
	if !p.cfg.smoke {
		registry := &phasedProg{engineProg: engineProg{name: "PHASED-SAFE", build: func() workloads.Instance {
			return phased.NewSafe(1)
		}}, window: phased.Window, factClass: "forward-only", factDist: phased.MinSafeDistance, staticDist: phased.MinSafeDistance}
		registry.reference()
		progs = append(append([]*phasedProg(nil), progs...), registry)
	}
	for _, pp := range progs {
		pp := pp
		rows := []namedRun{
			{"static-domore", func(inst workloads.Instance) {
				domore.Run(inst.(domore.Workload), domore.Options{Workers: p.cfg.procs})
			}},
			{"static-speccross", func(inst workloads.Instance) {
				speccross.Run(inst.(speccross.Workload), speccross.Config{
					Workers: p.cfg.procs, SpecDistance: pp.staticDist, CheckpointEvery: pp.window,
				})
			}},
		}
		if pp.name == "PHASED-SAFE" {
			rows = append(rows,
				namedRun{"adaptive-cold", func(inst workloads.Instance) { pp.adaptive(inst, p.cfg.procs, false, nil) }},
				namedRun{"adaptive-seeded", func(inst workloads.Instance) { pp.adaptive(inst, p.cfg.procs, true, nil) }})
		}
		for _, row := range rows {
			var xs []float64
			for i := 0; i < 3; i++ {
				inst := pp.fresh()
				t0 := time.Now()
				row.run(inst)
				xs = append(xs, ms(time.Since(t0)))
				if inst.Checksum() != pp.want {
					return 0, fmt.Errorf("%s/%s: checksum mismatch", pp.name, row.name)
				}
			}
			out.rows = append(out.rows, rowResult{Row: pp.name + "/" + row.name, Ops: len(xs), MedianMs: median(xs)})
		}
	}
	return 0, nil
}
