package main

import (
	"fmt"
	"sync"
	"time"

	"crossinv/internal/analysis/depend"
	"crossinv/internal/analysis/xdep"
	"crossinv/internal/core"
	"crossinv/internal/ir"
	"crossinv/internal/lang/ast"
	"crossinv/internal/lang/parser"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/transform/mtcg"
	"crossinv/internal/transform/speccrossgen"
)

// stageTimes holds benchmark-side timings of the compile pipeline's public
// functions, one sample per program and stage. Concurrent clients share it.
type stageTimes struct {
	mu      sync.Mutex
	ms      map[string][]float64
	bytes   int
	regions int
	classes map[string]int
}

func newStageTimes() *stageTimes {
	return &stageTimes{ms: map[string][]float64{}, classes: map[string]int{}}
}

func (s *stageTimes) add(stage string, d time.Duration) {
	s.mu.Lock()
	s.ms[stage] = append(s.ms[stage], ms(d))
	s.mu.Unlock()
}

// compiledProgram is everything the pipeline derives for one program.
type compiledProgram struct {
	c      *core.Compiled
	region *ir.Loop
	par    *mtcg.Parallelized
	prof   speccross.ProfileResult
	facts  core.RegionFacts
	oracle uint64
	epochs int
}

// pipeline runs the whole compile pipeline for src through each layer's
// public function, one span and one stage sample per call. It is what
// core.Compile, Lint, Oracle, ProfileRegion and PlanDOMORE do, called
// piecewise so each layer can be timed from here. st and tr may be nil.
func pipeline(src string, st *stageTimes, tr *tracer, op int64) (*compiledProgram, error) {
	root := tr.begin("pipeline", op, 0)
	defer root.end()
	timed := func(stage string, f func() error) error {
		sp := tr.begin(stage, op, root.id())
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		sp.end()
		if st != nil {
			st.add(stage, d)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		return nil
	}
	p := &compiledProgram{}
	var prog *ir.Program
	var dep *depend.Result
	var regions []*ir.Loop
	var tree *ast.Program
	if err := timed("parser.Parse", func() (e error) { tree, e = parser.Parse(src); return }); err != nil {
		return nil, err
	}
	if err := timed("ir.Lower", func() (e error) { prog, e = ir.Lower(tree); return }); err != nil {
		return nil, err
	}
	_ = timed("depend.Analyze", func() error { dep = depend.Analyze(prog); return nil })
	_ = timed("speccrossgen.Detect", func() error { regions = speccrossgen.Detect(prog); return nil })
	var facts *xdep.Facts
	_ = timed("xdep.Analyze", func() error { facts = xdep.Analyze(prog, dep, regions); return nil })
	// The remaining stages are methods of core.Compiled, which core.Compile
	// builds by repeating the four calls above; that repetition is set-up
	// cost of the benchmark, not of a layer, so it is not a stage.
	c, err := core.Compile(src)
	if err != nil {
		return nil, err
	}
	p.c = c
	if len(c.Regions) == 0 {
		return nil, core.ErrNoRegion
	}
	p.region = c.Regions[len(c.Regions)-1]
	p.facts = c.Facts()[len(c.Regions)-1]
	if err := timed("Compiled.Lint", func() error {
		if diags := c.Lint(); diags.HasErrors() {
			return fmt.Errorf("%s", diags.Errors().Text())
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := timed("Compiled.Oracle", func() (e error) { p.oracle, e = c.Oracle(); return }); err != nil {
		return nil, err
	}
	if err := timed("Compiled.ProfileRegion", func() (e error) {
		p.prof, e = c.ProfileRegion(p.region, core.SignatureKind)
		return
	}); err != nil {
		return nil, err
	}
	if err := timed("Compiled.PlanDOMORE", func() (e error) { p.par, e = c.PlanDOMORE(p.region); return }); err != nil {
		return nil, err
	}
	p.epochs = int(p.prof.Epochs)
	if st != nil {
		st.mu.Lock()
		st.bytes += len(src)
		st.regions += len(regions)
		for _, r := range facts.Regions {
			st.classes[r.Class]++
		}
		st.mu.Unlock()
	}
	return p, nil
}

// report writes the frontend, analysis, transform and core groups.
func (s *stageTimes) report(out *layerSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	med := func(stage string) float64 { return median(s.ms[stage]) }
	out.set("lang.parse_ms", med("parser.Parse"))
	out.set("ir.lower_ms", med("ir.Lower"))
	front := 0.0
	for _, stage := range []string{"parser.Parse", "ir.Lower"} {
		for _, v := range s.ms[stage] {
			front += v
		}
	}
	out.set("lang.source_mb_per_s", ratio(float64(s.bytes)/1e6, front/1e3))
	out.set("analysis.depend_ms", med("depend.Analyze"))
	out.set("analysis.xdep_ms", med("xdep.Analyze"))
	out.set("analysis.lint_ms", med("Compiled.Lint"))
	programs := float64(len(s.ms["parser.Parse"]))
	out.set("analysis.regions_per_program", ratio(float64(s.regions), programs))
	total := 0
	for _, n := range s.classes {
		total += n
	}
	out.set("analysis.xdep_none_share", ratio(float64(s.classes["none"]), float64(total)))
	out.set("analysis.xdep_forward_only_share", ratio(float64(s.classes["forward-only"]), float64(total)))
	out.set("analysis.xdep_cyclic_share", ratio(float64(s.classes["cyclic"]), float64(total)))
	out.set("analysis.xdep_unknown_share", ratio(float64(s.classes["unknown"]), float64(total)))
	out.set("transform.plan_domore_ms", med("Compiled.PlanDOMORE"))
	out.set("transform.detect_ms", med("speccrossgen.Detect"))
	out.set("core.oracle_ms", med("Compiled.Oracle"))
	out.set("core.profile_ms", med("Compiled.ProfileRegion"))
}

// regionCorpusSize is the number of generated programs compiled.regions
// compiles in set-up and executes every round.
const regionCorpusSize = 32

// regionModes are the six ways every program of the corpus is executed.
var regionModes = []string{"domore", "domore-sharded", "speccross", "speccross-misspec", "adaptive", "barrier"}

// regionsInstance is compiled.regions: every program of the corpus under
// every mode, once per round, one closed-loop driver.
type regionsInstance struct {
	cfg    *config
	progs  []*compiledProgram
	names  []string
	order  roundOrder
	stages *stageTimes
	rec    *trace.Recorder
	totals *engineTotals
	log    *rowLog
}

func setupRegions(cfg *config) (instance, error) {
	n := regionCorpusSize
	if cfg.smoke {
		n = 4
	}
	r := &regionsInstance{cfg: cfg, order: roundOrder{seed: cfg.seed}, stages: newStageTimes(), log: newRowLog()}
	if cfg.traced() {
		r.rec = trace.NewRecorder()
		r.totals = &engineTotals{}
	}
	for _, p := range corpus(cfg.seed, 1, regionShapes, n) {
		cp, err := pipeline(p.source, r.stages, cfg.tr, cfg.tr.op())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		r.progs = append(r.progs, cp)
		r.names = append(r.names, p.tmpl.String())
	}
	return r, nil
}

func (r *regionsInstance) clients() int  { return 1 }
func (r *regionsInstance) roundOps() int { return len(r.progs) * len(regionModes) }
func (r *regionsInstance) close()        {}

// execute runs one program under one mode and returns the checksum of the
// final state. rec and tot are nil on the measured pass.
func (p *compiledProgram) execute(mode string, workers int, rec *trace.Recorder, tot *engineTotals) (uint64, error) {
	tasksPerEpoch := ratio(float64(p.prof.Tasks), float64(p.prof.Epochs))
	switch mode {
	case "domore", "domore-sharded":
		opts := domore.Options{Workers: workers, Lanes: workers, Trace: rec}
		run := p.c.RunDOMOREPlanned
		if mode == "domore-sharded" {
			run = p.c.RunDOMOREShardedPlanned
		}
		t0 := time.Now()
		res, err := run(p.par, p.region, opts)
		if err != nil {
			return 0, err
		}
		if tot != nil {
			tot.addDomore(res.Stats, time.Since(t0), rec)
		}
		return res.Env.Checksum(), nil
	case "speccross", "speccross-misspec":
		cfg := speccross.Config{Workers: workers, Trace: rec}
		if mode == "speccross-misspec" {
			cfg.ForceMisspecEpoch = p.epochs / 2
		}
		res, err := p.c.RunSpecCrossProfiled(p.region, cfg, p.prof)
		if err != nil {
			return 0, err
		}
		if tot != nil {
			tot.addSpec(res.Stats, tasksPerEpoch, rec)
		}
		return res.Env.Checksum(), nil
	case "adaptive":
		// What the daemon does for mode adaptive: static facts first, then
		// the profile unless the region is provably DOALL.
		cfg := adaptive.Config{Workers: workers, Trace: rec}
		cfg.SeedFromFacts(p.facts.XDepClass, p.facts.XDepMinDistance)
		if p.facts.XDepClass != "none" {
			cfg.SeedFromProfile(p.prof.MinDistance, workers)
		}
		res, err := p.c.RunAdaptive(p.region, cfg)
		if err != nil {
			return 0, err
		}
		if tot != nil {
			tot.addAdaptive(res.Stats, tasksPerEpoch, rec.Events())
		}
		return res.Env.Checksum(), nil
	case "barrier":
		res, err := p.c.RunBarriersTraced(p.region, workers, rec)
		if err != nil {
			return 0, err
		}
		return res.Env.Checksum(), nil
	}
	return 0, fmt.Errorf("unknown mode %q", mode)
}

func (r *regionsInstance) do(_, seq int) (time.Duration, bool) {
	k := r.order.at(seq, r.roundOps())
	pi, mode := k/len(regionModes), regionModes[k%len(regionModes)]
	p := r.progs[pi]
	if r.rec != nil {
		r.rec.Reset()
	}
	row := r.names[pi] + "/" + mode
	sp := r.cfg.tr.begin("core.run/"+mode, r.cfg.tr.op(), 0)
	t0 := time.Now()
	sum, err := p.execute(mode, r.cfg.procs, r.rec, r.totals)
	lat := time.Since(t0)
	sp.end()
	r.log.add(row, lat)
	return lat, err == nil && sum == p.oracle
}

func (r *regionsInstance) finish(out *layerSet) (int, error) {
	out.rows = r.log.results()
	if !r.cfg.traced() {
		return 0, nil
	}
	r.stages.report(out)
	r.totals.report(out)
	// Sequential and barrier baselines per template, from the window's own
	// rows and one sequential interpretation per program.
	var seqMs, vsSeq, vsBar, barMs []float64
	for i, p := range r.progs {
		t0 := time.Now()
		if _, err := p.c.Oracle(); err != nil {
			return 0, err
		}
		seq := ms(time.Since(t0))
		bar := r.log.median(r.names[i] + "/barrier")
		seqMs, barMs = append(seqMs, seq), append(barMs, bar)
		for _, mode := range regionModes[:5] {
			eng := r.log.median(r.names[i] + "/" + mode)
			vsSeq = append(vsSeq, ratio(seq, eng))
			vsBar = append(vsBar, ratio(bar, eng))
		}
	}
	out.set("baseline.seq_ms", geomean(seqMs))
	out.set("baseline.barrier_ms", geomean(barMs))
	out.set("baseline.speedup_vs_seq", geomean(vsSeq))
	out.set("baseline.speedup_vs_barrier", geomean(vsBar))
	return 0, nil
}
