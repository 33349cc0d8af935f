package core

import (
	"fmt"

	"crossinv/internal/analysis/verify"
	"crossinv/internal/diag"
	"crossinv/internal/ir"
	"crossinv/internal/transform/advisor"
)

// Lint runs the static plan verifier over the whole program: every
// candidate region's prepared parallelization plan (partition, slices, MTCG
// communication, signature instrumentation), every loop's advisor
// classification, and the slot tables the executor indexes by. The returned
// list is sorted; callers attach the file name
// with diag.List.WithFile.
func (c *Compiled) Lint() diag.List {
	var out diag.List
	for _, region := range c.Regions {
		out = append(out, c.prepare(region).diags...)
	}
	for _, l := range c.Prog.Loops {
		rec := advisor.Advise(c.Prog, c.Dep, l)
		out = append(out, verify.Advisor(c.Prog, c.Dep, l, rec)...)
	}
	// Cross-check the cached cross-invocation facts against a fresh
	// analyzer run: no plan may rest on a verdict the analyzer would not
	// reproduce (in particular, none claimed where a dependence is proven).
	out = append(out, verify.XDep(c.Prog, c.Dep, c.Regions, c.XDep())...)
	out = append(out, verify.Slots(c.Prog)...)
	out.Sort()
	return out
}

// verifySignaturePlan is the always-on gate before any speculative or
// barrier execution built on speccrossgen: the signature-coverage and
// epoch-boundary checks of the region's prepared signature plan.
func (c *Compiled) verifySignaturePlan(region *ir.Loop) error {
	list := verify.Signatures(c.Prog, region, c.prepare(region).sig)
	if errs := list.Errors(); len(errs) > 0 {
		errs.Sort()
		return fmt.Errorf("core: speculative region failed verification:\n%s", errs.Text())
	}
	return nil
}

// verifySlots is the always-on gate before the executor touches a program
// on behalf of any engine: the slots it indexes by must still name what the
// analyses, and every plan derived from them, believe they name.
func verifySlots(p *ir.Program) error {
	if errs := verify.Slots(p).Errors(); len(errs) > 0 {
		errs.Sort()
		return fmt.Errorf("core: program failed verification:\n%s", errs.Text())
	}
	return nil
}
