// Package core is the crossinv compiler/runtime façade: the end-to-end
// automatic parallelization pipeline the paper contributes. It compiles a
// loop-nest-language program, analyzes its dependences, detects candidate
// regions, and executes them sequentially, or through Compiled.Run with
// barrier-synchronized DOALL (the baseline of Figs 5.1–5.2), with DOMORE
// (Chapter 3), with SPECCROSS (Chapter 4), or under the adaptive controller
// that switches between them — verifying that every strategy computes the
// sequential result.
package core

import (
	"errors"
	"fmt"
	"sync"

	"crossinv/internal/analysis/depend"
	"crossinv/internal/analysis/xdep"
	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
	"crossinv/internal/lang/parser"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/transform/advisor"
	"crossinv/internal/transform/speccrossgen"
)

// Compiled is a fully analyzed LNL program.
type Compiled struct {
	Prog *ir.Program
	Dep  *depend.Result
	// Regions lists candidate outer loops (sequential loops directly
	// containing parfor children), in preorder.
	Regions []*ir.Loop

	xdepFacts *xdep.Facts
	// prepared maps each region to its *prepared plan.
	prepared sync.Map
}

// XDep returns the cross-invocation dependence facts for every candidate
// region: distance/direction vectors and a none / forward-only / cyclic /
// unknown classification per region. Compile computes the report once — it
// is a pure function of the IR, and its Hash() content-addresses the
// dependence structure for the plan cache.
func (c *Compiled) XDep() *xdep.Facts {
	return c.xdepFacts
}

// Compile parses, lowers, and analyzes source text.
func Compile(src string) (*Compiled, error) {
	astProg, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	p, err := ir.Lower(astProg)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Prog: p, Dep: depend.Analyze(p)}
	c.Regions = speccrossgen.Detect(p)
	c.xdepFacts = xdep.Analyze(p, c.Dep, c.Regions)
	return c, nil
}

// ErrNoRegion reports that the program has no candidate region.
var ErrNoRegion = errors.New("core: program has no outer loop with parallel inner loops")

// Region returns the idx'th candidate region.
func (c *Compiled) Region(idx int) (*ir.Loop, error) {
	if idx < 0 || idx >= len(c.Regions) {
		return nil, ErrNoRegion
	}
	return c.Regions[idx], nil
}

// RunSequential executes the whole program sequentially and returns the
// final environment (the correctness oracle for every parallel strategy).
func (c *Compiled) RunSequential() (*interp.Env, error) {
	return interp.Run(c.Prog)
}

// runOutside executes program nodes up to (but excluding) the region loop,
// returning the environment at region entry, and a function that finishes
// the rest of the program after the region completes. Every engine mode and
// the §4.4 profile start here, so this is where the slot gate sits.
func (c *Compiled) runOutside(region *ir.Loop) (*interp.Env, func(*interp.Env) error, error) {
	if err := verifySlots(c.Prog); err != nil {
		return nil, nil, err
	}
	env := interp.NewEnv(c.Prog)
	var before, after []ir.Node
	found := false
	for _, n := range c.Prog.Body {
		if n == ir.Node(region) {
			found = true
			continue
		}
		if found {
			after = append(after, n)
		} else {
			before = append(before, n)
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("core: region is not a top-level loop")
	}
	if err := env.Exec(before); err != nil {
		return nil, nil, err
	}
	finish := func(e *interp.Env) error { return e.Exec(after) }
	return env, finish, nil
}

// Report summarizes the compile-time analysis of a region: the DOALL
// status of each inner loop, the Chapter 2 advisor's classification of the
// outer loop (why intra-invocation techniques alone cannot parallelize it),
// and the cross-invocation dependence count — what Table 5.1's
// "parallelization plan" column records.
func (c *Compiled) Report(region *ir.Loop) string {
	s := fmt.Sprintf("region: outer loop %q at %s\n", region.Var, region.Pos)
	outer := advisor.Advise(c.Prog, c.Dep, region)
	s += fmt.Sprintf("  outer loop plan: %v (%s)\n", outer.Plan, outer.Reason)
	for _, n := range region.Body {
		if l, ok := n.(*ir.Loop); ok && l.Parallel {
			s += fmt.Sprintf("  inner %q: %v\n", l.Var, c.Dep.ClassifyParallel(l))
		}
	}
	deps := c.Dep.CrossInvocationDeps(region)
	s += fmt.Sprintf("  cross-invocation dependences (static, may-alias): %d\n", len(deps))
	return s
}

// SignatureKind re-exports the default signature scheme for callers that
// do not import the signature package directly.
const SignatureKind = signature.Range
