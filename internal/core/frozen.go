package core

import (
	"crossinv/internal/ir"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/transform/mtcg"
)

// The methods in this file remain because the repository benchmark, which no
// change may edit, calls them by name. Each forwards to the runner Run uses
// for its engine, with the caller's configuration unchanged; the crossinvvet
// frozen-surface rule rejects any other caller outside tests.

// RunBarriers runs region under barriers on workers.
func (c *Compiled) RunBarriers(region *ir.Loop, workers int) (*BarrierResult, error) {
	return c.runBarriers(region, workers, nil)
}

// RunBarriersTraced is RunBarriers tracing into rec.
func (c *Compiled) RunBarriersTraced(region *ir.Loop, workers int, rec *trace.Recorder) (*BarrierResult, error) {
	return c.runBarriers(region, workers, rec)
}

// RunDOMOREPlanned runs region under DOMORE with the transform par.
func (c *Compiled) RunDOMOREPlanned(par *mtcg.Parallelized, region *ir.Loop, opts domore.Options) (*DomoreResult, error) {
	return c.runDOMORE(par, region, opts)
}

// RunDOMOREShardedPlanned is RunDOMOREPlanned.
func (c *Compiled) RunDOMOREShardedPlanned(par *mtcg.Parallelized, region *ir.Loop, opts domore.Options) (*DomoreResult, error) {
	return c.runDOMORE(par, region, opts)
}

// RunSpecCrossProfiled runs region under SPECCROSS gated by the profile
// prof, or under barriers when prof declines speculation.
func (c *Compiled) RunSpecCrossProfiled(region *ir.Loop, cfg speccross.Config, prof speccross.ProfileResult) (*SpecCrossResult, error) {
	return c.runSpecCross(region, cfg, prof)
}

// RunAdaptive runs region under the adaptive controller configured, and
// seeded, exactly as cfg says.
func (c *Compiled) RunAdaptive(region *ir.Loop, cfg adaptive.Config) (*AdaptiveResult, error) {
	return c.runAdaptive(region, cfg)
}
