// Package mtcg performs multi-threaded code generation for DOMORE
// (§3.3.2, Algorithm 4): given a partitioned loop nest and its computeAddr
// slices, it produces an executable scheduler/worker program — realized as
// a domore.Workload over the IR interpreter — in which the scheduler thread
// runs the outer loop's sequential region, redundantly evaluates the
// address slices, and dispatches inner-loop iterations to workers, with all
// live-in values flowing scheduler → worker exactly once per invocation
// (the produce/consume placement of Fig 3.7).
package mtcg

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"crossinv/internal/analysis/depend"
	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/transform/partition"
	"crossinv/internal/transform/slice"
)

// ErrMixedBody reports that the partitioner pulled part of an inner loop
// body into the scheduler; this generator only emits cleanly pipelined
// regions.
var ErrMixedBody = errors.New("mtcg: inner loop body not fully in worker partition")

// Parallelized is a DOMORE-transformed region, ready to Bind to program
// state and execute.
type Parallelized struct {
	Prog   *ir.Program
	Outer  *ir.Loop
	Part   *partition.Result
	Slices map[*ir.Loop]*slice.ComputeAddr
	// LiveIns lists, per inner loop, the scalar names its body reads that
	// the scheduler must forward (the loop live-ins of §3.3.2 step 4,
	// excluding the induction variable).
	LiveIns map[*ir.Loop][]string
}

// Transform partitions the region at outer and generates its computeAddr
// slices. It fails where the paper's transformation aborts: no parallel
// inner loop, empty worker partition, side-effecting or too-heavy slices.
func Transform(p *ir.Program, dep *depend.Result, outer *ir.Loop, sliceOpts slice.Options) (*Parallelized, error) {
	part, err := partition.Compute(p, dep, outer)
	if err != nil {
		return nil, err
	}
	for _, inner := range part.Inners {
		if !part.WorkerBody(inner) {
			return nil, fmt.Errorf("%w: loop %q", ErrMixedBody, inner.Var)
		}
	}
	workerWrites := map[string]bool{}
	for _, in := range p.Instrs {
		if in.Op == ir.Store && part.Side[in.ID] == partition.Worker {
			workerWrites[in.Array] = true
		}
	}
	par := &Parallelized{
		Prog: p, Outer: outer, Part: part,
		Slices:  map[*ir.Loop]*slice.ComputeAddr{},
		LiveIns: map[*ir.Loop][]string{},
	}
	for _, inner := range part.Inners {
		ca, err := slice.Generate(p, dep, inner, workerWrites, sliceOpts)
		if err != nil {
			return nil, err
		}
		par.Slices[inner] = ca
		par.LiveIns[inner] = liveIns(inner)
	}
	return par, nil
}

// liveIns collects the scalar names read in the loop body, excluding the
// loop's own induction variable and scalars defined earlier in the body.
func liveIns(inner *ir.Loop) []string {
	defined := map[string]bool{inner.Var: true}
	seen := map[string]bool{}
	var names []string
	var walk func(nodes []ir.Node)
	walk = func(nodes []ir.Node) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *ir.Instr:
				switch n.Op {
				case ir.ReadVar:
					if !defined[n.Var] && !seen[n.Var] {
						seen[n.Var] = true
						names = append(names, n.Var)
					}
				case ir.WriteVar:
					defined[n.Var] = true
				}
			case *ir.Loop:
				for _, in := range append(append([]*ir.Instr{}, n.Lo...), n.Hi...) {
					if in.Op == ir.ReadVar && !defined[in.Var] && !seen[in.Var] {
						seen[in.Var] = true
						names = append(names, in.Var)
					}
				}
				defined[n.Var] = true
				walk(n.Body)
			case *ir.If:
				for _, in := range n.Cond {
					if in.Op == ir.ReadVar && !defined[in.Var] && !seen[in.Var] {
						seen[in.Var] = true
						names = append(names, in.Var)
					}
				}
				walk(n.Then)
				walk(n.Else)
			}
		}
	}
	walk(inner.Body)
	return names
}

// invocation is the per-invocation record the scheduler publishes to
// workers: which inner loop and its bounds. The live-in scalar values sit in
// the workload's liveVals arena at the invocation's stride.
type invocation struct {
	innerIdx int
	lo, hi   int64
}

// workload adapts the transformed region to domore.Workload.
type workload struct {
	par     *Parallelized
	sched   *interp.Env
	workers []*interp.Env
	// segments[i] holds the scheduler-side nodes preceding inner loop i in
	// the outer body; tail holds nodes after the last inner loop.
	segments [][]ir.Node
	tail     []ir.Node
	outerLo  int64
	outerN   int64
	invs     []invocation

	// Per inner loop, resolved once at Bind: the loop, its computeAddr
	// slice and the variable slots of its live-ins.
	inners    []*ir.Loop
	slices    []*slice.ComputeAddr
	liveSlots [][]int
	// liveVals holds every invocation's forwarded live-in values:
	// invocation inv owns liveVals[inv*liveStride:][:len(liveSlots[i])].
	liveVals   []int64
	liveStride int

	errMu sync.Mutex
	err   error // first execution error (read via Err/Finish)
	bad   atomic.Bool
}

// failed reports whether any error has been recorded (cheap, lock-free).
func (w *workload) failed() bool { return w.bad.Load() }

// Bind prepares the region to run against env's state with the given
// number of workers. Call domore.Run with the returned workload, then
// Finish to execute the outer loop's trailing sequential code and collect
// any execution error.
func (par *Parallelized) Bind(env *interp.Env, workers int) (*workload, error) {
	w := &workload{par: par, sched: env}
	for i := 0; i < workers; i++ {
		w.workers = append(w.workers, env.Fork())
	}

	// Split the outer body into scheduler segments around the inner loops,
	// resolving each inner loop's slice and live-in slots as it is met.
	var cur []ir.Node
	for _, n := range par.Outer.Body {
		inner, ok := n.(*ir.Loop)
		if !ok || par.Slices[inner] == nil {
			cur = append(cur, n)
			continue
		}
		w.segments = append(w.segments, cur)
		cur = nil
		names := par.LiveIns[inner]
		slots := make([]int, len(names))
		for j, name := range names {
			if slots[j] = par.Prog.VarSlot(name); slots[j] < 0 {
				return nil, fmt.Errorf("mtcg: live-in %q of loop %q is not a program scalar", name, inner.Var)
			}
		}
		w.inners = append(w.inners, inner)
		w.slices = append(w.slices, par.Slices[inner])
		w.liveSlots = append(w.liveSlots, slots)
		if len(slots) > w.liveStride {
			w.liveStride = len(slots)
		}
	}
	w.tail = cur

	lo, hi, err := env.LoopBounds(par.Outer)
	if err != nil {
		return nil, err
	}
	w.outerLo = lo
	if hi > lo {
		w.outerN = hi - lo
	}
	w.invs = make([]invocation, w.Invocations())
	w.liveVals = make([]int64, len(w.invs)*w.liveStride)
	return w, nil
}

// Invocations implements domore.Workload.
func (w *workload) Invocations() int {
	return int(w.outerN) * len(w.segments)
}

// liveIns returns invocation inv's slice of the live-in arena.
func (w *workload) liveIns(inv, innerIdx int) []int64 {
	return w.liveVals[inv*w.liveStride:][:len(w.liveSlots[innerIdx])]
}

// Sequential implements domore.Workload: it advances the outer loop to the
// invocation's iteration, executes the scheduler segment preceding the
// inner loop (plus the previous iteration's tail), evaluates the inner
// bounds, and snapshots the live-ins workers will need.
func (w *workload) Sequential(inv int) {
	if w.failed() {
		return
	}
	k := len(w.segments)
	outerIter := inv / k
	innerIdx := inv % k
	if innerIdx == 0 {
		if outerIter > 0 {
			if err := w.sched.Exec(w.tail); err != nil {
				w.fail(err)
				return
			}
		}
		w.sched.Vars[w.par.Outer.VarSlot] = w.outerLo + int64(outerIter)
	}
	if err := w.sched.Exec(w.segments[innerIdx]); err != nil {
		w.fail(err)
		return
	}
	lo, hi, err := w.sched.LoopBounds(w.inners[innerIdx])
	if err != nil {
		w.fail(err)
		return
	}
	vals := w.liveIns(inv, innerIdx)
	for j, slot := range w.liveSlots[innerIdx] {
		vals[j] = w.sched.Vars[slot]
	}
	w.invs[inv] = invocation{innerIdx: innerIdx, lo: lo, hi: hi}
}

// Finish executes the trailing sequential code of the final outer iteration
// and reports the first error encountered anywhere in the region.
func (w *workload) Finish() error {
	if !w.failed() && w.outerN > 0 {
		w.sched.Vars[w.par.Outer.VarSlot] = w.outerLo + w.outerN - 1
		if err := w.sched.Exec(w.tail); err != nil {
			w.fail(err)
		}
	}
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

func (w *workload) fail(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
	w.bad.Store(true)
}

// Iterations implements domore.Workload.
func (w *workload) Iterations(inv int) int {
	if w.failed() {
		return 0
	}
	rec := w.invs[inv]
	if rec.hi <= rec.lo {
		return 0
	}
	return int(rec.hi - rec.lo)
}

// ComputeAddr implements domore.Workload: it evaluates the inner loop's
// slice on the scheduler's environment (slice.ComputeAddr.Eval). A slice
// fault fails the region, which stops the workers' bodies, and the
// iteration still carries every address the slice computed.
func (w *workload) ComputeAddr(inv, iter int, buf []uint64) []uint64 {
	if w.failed() {
		return buf
	}
	rec := w.invs[inv]
	w.sched.Vars[w.inners[rec.innerIdx].VarSlot] = rec.lo + int64(iter)
	buf, err := w.slices[rec.innerIdx].Eval(w.sched, buf)
	if err != nil {
		w.fail(err)
	}
	return buf
}

// Execute implements domore.Workload: run one inner-loop iteration on the
// worker's private environment, with live-ins installed.
func (w *workload) Execute(inv, iter, tid int) {
	if w.failed() {
		return
	}
	rec := w.invs[inv]
	inner := w.inners[rec.innerIdx]
	env := w.workers[tid]
	vals := w.liveIns(inv, rec.innerIdx)
	for j, slot := range w.liveSlots[rec.innerIdx] {
		env.Vars[slot] = vals[j]
	}
	env.Vars[inner.VarSlot] = rec.lo + int64(iter)
	if err := env.Exec(inner.Body); err != nil {
		w.fail(err)
	}
}

// Run executes the transformed region against env using the DOMORE runtime
// and returns the engine statistics.
func (par *Parallelized) Run(env *interp.Env, opts domore.Options) (domore.Stats, error) {
	w, err := par.Bind(env, opts.Workers)
	if err != nil {
		return domore.Stats{}, err
	}
	stats := domore.Run(w, opts)
	return stats, w.Finish()
}
