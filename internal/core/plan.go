package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"crossinv/internal/ir"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/transform/advisor"
	"crossinv/internal/transform/mtcg"
	"crossinv/internal/transform/slice"
	"crossinv/internal/transform/speccrossgen"
)

// PipelineVersion identifies the analysis/transform pipeline that produced
// a plan artifact. Bump it whenever the dependence analysis, partitioner,
// slicer, MTCG, or profiler change observably: cached plans from an older
// pipeline then miss (and recompute) instead of being replayed.
const PipelineVersion = "pipeline/v1"

// SourceHash is the content address of a program: the hex SHA-256 of its
// source text. Everything the pipeline derives is a pure function of the
// source, so two invocations with equal hashes share every plan artifact.
func SourceHash(src string) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:])
}

// RegionFacts is the serializable analysis record for one candidate
// region — the "parallelization plan" column of Table 5.1 in data form.
type RegionFacts struct {
	// Var and Pos identify the outer loop.
	Var string `json:"var"`
	Pos string `json:"pos"`
	// AdvisorPlan is the Chapter 2 advisor's classification of the outer
	// loop and InnerClasses the DOALL status of each parallel inner loop.
	AdvisorPlan  string   `json:"advisor_plan"`
	InnerClasses []string `json:"inner_classes,omitempty"`
	// CrossInvDeps counts the static may-alias cross-invocation
	// dependences — the quantity the paper's runtimes synchronize or
	// speculate across.
	CrossInvDeps int `json:"cross_inv_deps"`
	// XDepClass is the xdep analyzer's verdict for the region (none /
	// forward-only / cyclic / unknown) and XDepMinDistance /
	// XDepMaxDistance its proven invocation-distance bounds (meaningful
	// for forward-only). Cached plans replay these into
	// adaptive.Config.SeedFromFacts.
	XDepClass       string `json:"xdep_class,omitempty"`
	XDepMinDistance int64  `json:"xdep_min_distance,omitempty"`
	XDepMaxDistance int64  `json:"xdep_max_distance,omitempty"`
}

// Facts extracts the serializable analysis facts for every candidate
// region. This is the cacheable face of the dependence analysis: a plan
// cache stores Facts (not *Compiled, which holds live IR pointers), and a
// warm invocation replays them instead of re-running Analyze.
func (c *Compiled) Facts() []RegionFacts {
	xd := c.XDep()
	out := make([]RegionFacts, 0, len(c.Regions))
	for i, region := range c.Regions {
		rec := advisor.Advise(c.Prog, c.Dep, region)
		f := RegionFacts{
			Var:          region.Var,
			Pos:          region.Pos.String(),
			AdvisorPlan:  fmt.Sprintf("%v (%s)", rec.Plan, rec.Reason),
			CrossInvDeps: len(c.Dep.CrossInvocationDeps(region)),
		}
		if i < len(xd.Regions) {
			r := &xd.Regions[i]
			f.XDepClass = r.Class
			f.XDepMinDistance = r.MinDistance
			f.XDepMaxDistance = r.MaxDistance
		}
		for _, n := range region.Body {
			if l, ok := n.(*ir.Loop); ok && l.Parallel {
				f.InnerClasses = append(f.InnerClasses,
					fmt.Sprintf("%s: %v", l.Var, c.Dep.ClassifyParallel(l)))
			}
		}
		out = append(out, f)
	}
	return out
}

// ProfileRegion runs the §4.4 profiling pass for the region against
// scratch state (the program executed up to region entry) and returns the
// observed conflict profile. The pass never touches the caller's state, so
// its result is a pure function of (source, region, kind) — exactly what a
// plan cache may persist and replay.
func (c *Compiled) ProfileRegion(region *ir.Loop, kind signature.Kind) (speccross.ProfileResult, error) {
	env, _, err := c.runOutside(region)
	if err != nil {
		return speccross.ProfileResult{}, err
	}
	pr, err := speccrossgen.New(c.Prog, c.Dep, region, env, 1)
	if err != nil {
		return speccross.ProfileResult{}, err
	}
	return pr.Profile(kind), nil
}

// PlanDOMORE runs the DOMORE compile pipeline for the region — partition,
// computeAddr slicing, MTCG — and the always-on plan verifier, returning
// the transformed region. The result is immutable after construction
// (Parallelized.Bind builds fresh per-run state), so a daemon may build it
// once per program and reuse it across concurrent invocations.
func (c *Compiled) PlanDOMORE(region *ir.Loop) (*mtcg.Parallelized, error) {
	par, err := mtcg.Transform(c.Prog, c.Dep, region, slice.Options{})
	if err != nil {
		return nil, err
	}
	if err := verifyDomorePlan(par); err != nil {
		return nil, err
	}
	return par, nil
}

// Oracle runs the program sequentially and returns the checksum every
// parallel strategy must reproduce. Programs are deterministic, so the
// checksum is a pure function of the source — cacheable alongside the
// plan, which is how a warm invocation verifies without re-running the
// sequential oracle.
func (c *Compiled) Oracle() (uint64, error) {
	env, err := c.RunSequential()
	if err != nil {
		return 0, err
	}
	return env.Checksum(), nil
}
