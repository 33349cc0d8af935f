package core

import (
	"fmt"

	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/barrier"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/transform/mtcg"
	"crossinv/internal/transform/speccrossgen"
)

// Plan is what Run may need about a region beyond its IR and its prepared
// plan: the analysis facts that seed the adaptive controller, and a
// supplier of the §4.4 profile, which takes a profiling pass to build. Run
// calls the supplier only when the engine it runs needs the profile, so a
// caller that caches profiles builds, counts and traces each one where it
// is actually needed.
type Plan struct {
	// Facts are the region's entry in Compiled.Facts. Adaptive seeds its
	// controller from XDepClass and XDepMinDistance.
	Facts RegionFacts
	// Profile supplies the §4.4 conflict profile. Nil means ProfileRegion
	// with Options.SigKind.
	Profile func() (speccross.ProfileResult, error)
}

// Options say how Run executes a region.
type Options struct {
	// Engine is barrier, domore, speccross, adaptive or auto.
	Engine  string
	Workers int
	// SigKind is the signature scheme of SPECCROSS epochs, adaptive's
	// speculative windows, and the profile Run takes when Plan.Profile is
	// nil.
	SigKind signature.Kind
	// Window is adaptive's monitoring window in epochs (<= 0: the runtime
	// default).
	Window int
	// ForceMisspecEpoch, when positive, injects one misspeculation at that
	// epoch (speccross and adaptive).
	ForceMisspecEpoch int
	// Trace receives the engine's events; nil disables tracing.
	Trace *trace.Recorder
	// SpanParent and OnDecision are passed to adaptive.Config.
	SpanParent int64
	OnDecision func(adaptive.Decision)
}

// Result is the outcome of Run. Of Barrier, DOMORE, SpecCross and Adaptive,
// only the one of the engine that ran is set.
type Result struct {
	// Engine is the engine that ran: Options.Engine, or auto's choice. Run
	// sets it on failure too, once the choice is made.
	Engine string
	// Env is the program's final environment.
	Env       *interp.Env
	Barrier   *BarrierResult
	DOMORE    *DomoreResult
	SpecCross *SpecCrossResult
	Adaptive  *AdaptiveResult
}

// BarrierResult is the outcome of a barrier-parallelized execution.
type BarrierResult struct {
	Env     *interp.Env
	Barrier *barrier.Barrier
}

// DomoreResult is the outcome of a DOMORE execution.
type DomoreResult struct {
	Env   *interp.Env
	Stats domore.Stats
	Par   *mtcg.Parallelized
}

// SpecCrossResult is the outcome of a SPECCROSS execution. Stats are zero
// when the profile declined speculation and the region ran under barriers.
type SpecCrossResult struct {
	Env     *interp.Env
	Stats   speccross.Stats
	Profile speccross.ProfileResult
}

// AdaptiveResult is the outcome of an adaptive hybrid execution.
type AdaptiveResult struct {
	Env   *interp.Env
	Stats adaptive.Stats
}

// Run executes the program with region under the engine o names, and is
// the one way every caller runs a compiled region:
//   - barrier splits each inner loop across workers, with a barrier
//     between invocations (Fig 1.3(b));
//   - domore runs the MTCG scheduler/worker transform (Chapter 3);
//   - speccross speculates across invocations within the profile's
//     minimum dependence distance, and runs barriers instead when that
//     distance is below the worker count (§4.4);
//   - adaptive hands the region to the hybrid controller, seeded from the
//     static facts and then from the profile, unless the facts prove the
//     region free of cross-invocation dependences (class none): that pins
//     speculation and no profile is taken. Its DOMORE windows take their
//     addresses from the DOMORE plan's slices, so it needs PlanDOMORE too;
//   - auto runs Choose's engine for the region's profile.
func (c *Compiled) Run(region *ir.Loop, p Plan, o Options) (Result, error) {
	profile := p.Profile
	if profile == nil {
		profile = func() (speccross.ProfileResult, error) { return c.ProfileRegion(region, o.SigKind) }
	}
	res := Result{Engine: o.Engine}
	if o.Engine == "auto" {
		prof, err := profile()
		if err != nil {
			return res, err
		}
		res.Engine = Choose(prof, o.Workers)
		profile = func() (speccross.ProfileResult, error) { return prof, nil }
	}
	var err error
	switch res.Engine {
	case "barrier":
		if res.Barrier, err = c.runBarriers(region, o.Workers, o.Trace); err == nil {
			res.Env = res.Barrier.Env
		}
	case "domore":
		var par *mtcg.Parallelized
		if par, err = c.PlanDOMORE(region); err != nil {
			return res, err
		}
		if res.DOMORE, err = c.runDOMORE(par, region, domore.Options{Workers: o.Workers, Trace: o.Trace}); err == nil {
			res.Env = res.DOMORE.Env
		}
	case "speccross":
		var prof speccross.ProfileResult
		if prof, err = profile(); err != nil {
			return res, err
		}
		cfg := speccross.Config{Workers: o.Workers, SigKind: o.SigKind, ForceMisspecEpoch: o.ForceMisspecEpoch, Trace: o.Trace}
		if res.SpecCross, err = c.runSpecCross(region, cfg, prof); err == nil {
			res.Env = res.SpecCross.Env
		}
	case "adaptive":
		cfg := adaptive.Config{Workers: o.Workers, Window: o.Window, Trace: o.Trace, SpanParent: o.SpanParent, OnDecision: o.OnDecision}
		cfg.Spec.SigKind = o.SigKind
		cfg.Spec.ForceMisspecEpoch = o.ForceMisspecEpoch
		cfg.SeedFromFacts(p.Facts.XDepClass, p.Facts.XDepMinDistance)
		if p.Facts.XDepClass != "none" {
			prof, err := profile()
			if err != nil {
				return res, err
			}
			cfg.SeedFromProfile(prof.MinDistance, o.Workers)
		}
		var par *mtcg.Parallelized
		if par, err = c.PlanDOMORE(region); err != nil {
			return res, err
		}
		if res.Adaptive, err = c.runAdaptive(par, region, cfg); err == nil {
			res.Env = res.Adaptive.Env
		}
	default:
		return res, fmt.Errorf("core: unknown engine %q", o.Engine)
	}
	return res, err
}

// Choose is auto's engine for a region whose §4.4 profile is prof, run on
// workers: speccross when the profile finds speculation profitable, domore
// otherwise.
func Choose(prof speccross.ProfileResult, workers int) string {
	if _, profitable := prof.Recommended(workers); profitable {
		return "speccross"
	}
	return "domore"
}

// execute is the skeleton every engine runner shares: it runs the program
// up to region, runs the engine on the entry environment, and finishes the
// program. It returns res with *env set to the final environment, or nil and
// the first error.
func execute[R any](c *Compiled, region *ir.Loop, res *R, env **interp.Env, run func(*interp.Env) error) (*R, error) {
	e, finish, err := c.runOutside(region)
	if err == nil {
		err = run(e)
	}
	if err == nil {
		err = finish(e)
	}
	if err != nil {
		return nil, err
	}
	*env = e
	return res, nil
}

// speculative builds the epoch/task form of region over env, which the
// barrier, SPECCROSS and adaptive engines run, behind the gate on the
// region's prepared signature plan.
func (c *Compiled) speculative(region *ir.Loop, env *interp.Env, workers int) (*speccrossgen.Region, error) {
	r, err := speccrossgen.New(c.Prog, c.Dep, region, env, workers)
	if err != nil {
		return nil, err
	}
	return r, c.verifySignaturePlan(region)
}

func (c *Compiled) runBarriers(region *ir.Loop, workers int, rec *trace.Recorder) (*BarrierResult, error) {
	res := &BarrierResult{}
	return execute(c, region, res, &res.Env, func(env *interp.Env) error {
		r, err := c.speculative(region, env, workers)
		if err == nil {
			res.Barrier = speccross.RunBarriersTraced(r, workers, rec)
		}
		return err
	})
}

func (c *Compiled) runDOMORE(par *mtcg.Parallelized, region *ir.Loop, opts domore.Options) (*DomoreResult, error) {
	res := &DomoreResult{Par: par}
	return execute(c, region, res, &res.Env, func(env *interp.Env) (err error) {
		res.Stats, err = par.Run(env, opts)
		return err
	})
}

// runSpecCross speculates within the profile's recommended distance, or
// runs barriers when the profile says speculation cannot pay (§4.4).
func (c *Compiled) runSpecCross(region *ir.Loop, cfg speccross.Config, prof speccross.ProfileResult) (*SpecCrossResult, error) {
	res := &SpecCrossResult{Profile: prof}
	dist, profitable := prof.Recommended(cfg.Workers)
	return execute(c, region, res, &res.Env, func(env *interp.Env) error {
		r, err := c.speculative(region, env, cfg.Workers)
		if err != nil {
			return err
		}
		if !profitable {
			speccross.RunBarriers(r, cfg.Workers)
			return nil
		}
		cfg.SpecDistance = dist
		res.Stats = speccross.Run(r, cfg)
		return nil
	})
}

// runAdaptive runs the region under adaptive.Run through its DOMORE view,
// whose addresses come from the slices of par, the region's DOMORE plan.
func (c *Compiled) runAdaptive(par *mtcg.Parallelized, region *ir.Loop, cfg adaptive.Config) (*AdaptiveResult, error) {
	res := &AdaptiveResult{}
	return execute(c, region, res, &res.Env, func(env *interp.Env) error {
		r, err := c.speculative(region, env, cfg.Workers)
		if err != nil {
			return err
		}
		v, err := speccrossgen.NewDomoreView(r, par.Slices)
		if err == nil {
			res.Stats = adaptive.Run(v, cfg)
		}
		return err
	})
}
