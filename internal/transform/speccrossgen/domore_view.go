package speccrossgen

import (
	"fmt"

	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
	"crossinv/internal/transform/slice"
)

// This file gives a transformed Region a DOMORE face: each task's address
// set comes from its inner loop's §3.3.4 computeAddr slice, the same
// program mtcg's scheduler runs. Together with the Region's existing
// speccross.Workload implementation, the resulting DomoreView satisfies
// adaptive.Workload, so compiled LNL regions can run under the adaptive
// hybrid runtime (crossinv -mode adaptive).

// DomoreView adapts a Region to domore.Workload while keeping the embedded
// Region's speccross.Workload methods, so it implements adaptive.Workload.
// ComputeAddr evaluates the task's slice on one private scheduler
// environment over live memory, with the epoch's scalar frame installed.
// The slice never loads an array the parallel loops write (slice.Generate
// rejects it with slice.ErrWorkerState), so it reads nothing a running task
// changes and its addresses are exact whenever the scheduler asks.
//
// ComputeAddr shares that one environment, so only one scheduler may call
// it at a time.
type DomoreView struct {
	*Region
	env *interp.Env
	// slices[i] is the computeAddr slice of Inners[i].
	slices []*slice.ComputeAddr
}

// NewDomoreView wraps a transformed region with the slices of its inner
// loops, as mtcg.Transform generated and core's plan verifier checked them.
func NewDomoreView(r *Region, slices map[*ir.Loop]*slice.ComputeAddr) (*DomoreView, error) {
	v := &DomoreView{Region: r, env: r.base.Fork()}
	for _, inner := range r.Inners {
		ca := slices[inner]
		if ca == nil {
			return nil, fmt.Errorf("speccrossgen: no computeAddr slice for loop %q at %s", inner.Var, inner.Pos)
		}
		v.slices = append(v.slices, ca)
	}
	return v, nil
}

// Invocations implements domore.Workload; the DOMORE and SPECCROSS views of
// a region count the same inner-loop invocations.
func (v *DomoreView) Invocations() int { return v.Epochs() }

// Iterations implements domore.Workload.
func (v *DomoreView) Iterations(inv int) int { return v.Tasks(inv) }

// Sequential implements domore.Workload. The region's interleaved
// sequential code was already replayed at New time (its effects live in
// each epoch's scalar snapshot, installed by Run/ComputeAddr per task), so
// the scheduler has nothing left to execute here.
func (v *DomoreView) Sequential(inv int) {}

// Execute implements domore.Workload: run the task non-speculatively (nil
// signature — no access tracking).
func (v *DomoreView) Execute(inv, iter, tid int) { v.Run(inv, iter, tid, nil) }

// ComputeAddr implements domore.Workload by evaluating the task's slice and
// appending the distinct addresses it tracks to buf. Eval already skips
// out-of-range loads, the one fault a store-free slice meets on a lowered
// program; any other failure is an instruction the task body holds too, so
// the view keeps the addresses and leaves raising it to Execute.
func (v *DomoreView) ComputeAddr(inv, iter int, buf []uint64) []uint64 {
	v.enter(v.env, inv, iter)
	buf, _ = v.slices[v.epochs[inv].innerIdx].Eval(v.env, buf)
	return buf
}
