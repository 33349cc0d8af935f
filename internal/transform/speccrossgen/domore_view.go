package speccrossgen

import (
	"errors"
	"fmt"

	"crossinv/internal/analysis/verify"
	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
)

// This file gives a transformed Region a DOMORE face: the computeAddr slice
// of §3.3 derived by replaying each task's body on a private environment and
// recording the addresses it touches. Together with the Region's existing
// speccross.Workload implementation, the resulting DomoreView satisfies
// adaptive.Workload, so compiled LNL regions can run under the adaptive
// hybrid runtime (crossinv -mode adaptive).

// ErrAddrDependsOnParallel reports that some address (or the control flow
// selecting which addresses are accessed) inside a parallel body depends on
// array values the parallel loops themselves write. DOMORE's scheduler must
// compute an iteration's address set before the iteration runs (§3.3.4
// aborts the transformation in this case), so such regions have no DOMORE
// view.
var ErrAddrDependsOnParallel = errors.New(
	"speccrossgen: task addresses depend on arrays written by parallel loops; no DOMORE view")

// DomoreView adapts a Region to domore.Workload while keeping the embedded
// Region's speccross.Workload methods, so it implements adaptive.Workload.
// ComputeAddr replays the task body on a private environment over a
// snapshot of the shared arrays, recording every load/store address; the
// snapshot is refreshed at each adaptive window boundary via WindowStart
// (a full-quiesce point, so the copy is race-free). NewDomoreView verifies
// statically that addresses never depend on parallel-written array values,
// which makes the replayed addresses exact regardless of snapshot age.
//
// The view drives the dedicated-scheduler engine (domore.Run): ComputeAddr
// shares one replay environment, so it is not safe for the concurrent
// scheduler lanes of domore.RunSharded with Options.ConcurrentAddr.
type DomoreView struct {
	*Region
	addrEnv *addrReplayEnv
}

// NewDomoreView validates and wraps a transformed region. It fails with
// ErrAddrDependsOnParallel when the address computations (or branch/bound
// decisions guarding them) inside the parallel bodies read arrays those
// bodies write.
func NewDomoreView(r *Region) (*DomoreView, error) {
	if err := checkAddrIndependence(r); err != nil {
		return nil, err
	}
	v := &DomoreView{Region: r}
	v.addrEnv = newAddrReplayEnv(r)
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

// ComputeAddr implements domore.Workload by replaying the task body on the
// private environment and collecting the distinct addresses it loads or
// stores. It mutates only that private environment, so it is side-effect
// free with respect to program state, as §3.3.4 requires.
func (v *DomoreView) ComputeAddr(inv, iter int, buf []uint64) []uint64 {
	return v.addrEnv.replay(inv, iter, buf)
}

// WindowStart implements adaptive.WindowStarter: refresh the replay
// environment's array copy from the live state. All engine workers are
// quiescent at window boundaries, so the copy is race-free.
func (v *DomoreView) WindowStart(epoch int) { v.addrEnv.refresh() }

// addrReplayEnv replays task bodies on a private copy of the shared arrays
// to enumerate the addresses a task will access.
type addrReplayEnv struct {
	r   *Region
	env *interp.Env
	col addrCollector
}

func newAddrReplayEnv(r *Region) *addrReplayEnv {
	a := &addrReplayEnv{r: r, env: r.base.Fork()}
	a.env.Mem = r.base.Snapshot()
	a.env.Sink = &a.col
	return a
}

// refresh re-copies the live arrays into the private replay copy. Callers
// must hold a quiesce point (adaptive window boundaries qualify).
func (a *addrReplayEnv) refresh() {
	copy(a.env.Mem, a.r.base.Mem)
}

// replay executes the task body with the collector attached, appending each
// distinct touched address to buf.
func (a *addrReplayEnv) replay(inv, iter int, buf []uint64) []uint64 {
	a.col = addrCollector{buf: buf, start: len(buf)}
	inner := a.r.enter(a.env, inv, iter)
	if err := a.env.Exec(inner.Body); err != nil {
		// The replay copy can lag the live arrays by up to a window; the
		// independence check guarantees the recorded addresses are still
		// exact, and value-dependent faults surface in Execute instead.
		_ = err
	}
	return a.col.buf
}

// addrCollector is the interp.Sink of the address replay: loads and stores
// alike append their address to buf unless it already appears at or after
// start (the addresses of the task being replayed).
type addrCollector struct {
	buf   []uint64
	start int
}

func (c *addrCollector) Read(addr uint64)  { c.add(addr) }
func (c *addrCollector) Write(addr uint64) { c.add(addr) }

func (c *addrCollector) add(addr uint64) {
	for _, b := range c.buf[c.start:] {
		if b == addr {
			return
		}
	}
	c.buf = append(c.buf, addr)
}

// checkAddrIndependence taints every register holding a value loaded from a
// parallel-written array and propagates the taint through registers and
// scalar variables to a fixpoint (the shared verify.TaintFromArrays pass,
// which the static plan verifier also uses for slice purity). If taint
// reaches an address operand (Load/Store index), a branch condition, or a
// nested loop bound inside a parallel body, the address set cannot be
// precomputed by the scheduler.
func checkAddrIndependence(r *Region) error {
	parallelWrites := map[string]bool{}
	var body []*ir.Instr
	for _, inner := range r.Inners {
		collectInstrs(inner.Body, &body)
	}
	for _, in := range body {
		if in.Op == ir.Store {
			parallelWrites[in.Array] = true
		}
	}
	if len(parallelWrites) == 0 {
		return nil
	}

	t := verify.TaintFromArrays(body, parallelWrites)
	taintReg := t.Reg

	// Address operands of every access.
	for _, in := range body {
		if (in.Op == ir.Load || in.Op == ir.Store) && taintReg[in.A] {
			return fmt.Errorf("%w (index of %s %q at %s)", ErrAddrDependsOnParallel, in.Op, in.Array, in.Pos)
		}
	}
	// Control flow selecting the accesses: If conditions and nested loop
	// bounds inside the parallel bodies.
	var ctrlErr error
	var walk func(nodes []ir.Node)
	walk = func(nodes []ir.Node) {
		for _, n := range nodes {
			if ctrlErr != nil {
				return
			}
			switch n := n.(type) {
			case *ir.Loop:
				if taintReg[n.LoReg] || taintReg[n.HiReg] {
					ctrlErr = fmt.Errorf("%w (bounds of loop %q at %s)", ErrAddrDependsOnParallel, n.Var, n.Pos)
					return
				}
				walk(n.Body)
			case *ir.If:
				if taintReg[n.CondReg] {
					ctrlErr = fmt.Errorf("%w (branch at %s)", ErrAddrDependsOnParallel, n.Pos)
					return
				}
				walk(n.Then)
				walk(n.Else)
			}
		}
	}
	for _, inner := range r.Inners {
		walk(inner.Body)
	}
	return ctrlErr
}
