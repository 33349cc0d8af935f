// Package speccrossgen performs the SPECCROSS compiler transformation
// (§4.3, Algorithm 5): it detects code regions made of consecutive parallel
// loop invocations under an outer sequential loop, verifies the interleaved
// sequential code is privatizable (scalar-only, so it can be duplicated or
// replayed per §4.3's requirement), and emits an executable region — a
// speccross.Workload over the IR interpreter — whose tasks record their
// memory accesses into signatures exactly where spec_access instrumentation
// would be inserted (every load and store of shared arrays: the executor
// shows its sink the access at the same program points).
package speccrossgen

import (
	"errors"
	"fmt"

	"crossinv/internal/analysis/depend"
	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/sim"
)

// ErrNoParallelInner reports a region without parfor children.
var ErrNoParallelInner = errors.New("speccrossgen: region has no parallel inner loop")

// ErrSequentialStores reports that the code between inner loops writes
// shared arrays, so it cannot be privatized across workers.
var ErrSequentialStores = errors.New("speccrossgen: sequential region writes shared arrays; not privatizable")

// ErrSequentialReadsParallel reports that the sequential code reads arrays
// the parallel loops write, so the epoch schedule cannot be computed ahead
// of the speculative execution (the Fig 4.1 constraint applied to the
// control replay).
var ErrSequentialReadsParallel = errors.New("speccrossgen: sequential region reads arrays written by parallel loops")

// Detect returns the outer loops that are SPECCROSS region candidates: a
// non-parallel loop directly containing at least one parfor (the hot loop
// nests of §4.3; the whole-program hotness filter is the caller's concern).
func Detect(p *ir.Program) []*ir.Loop {
	var out []*ir.Loop
	for _, l := range p.Loops {
		if l.Parallel {
			continue
		}
		for _, n := range l.Body {
			if inner, ok := n.(*ir.Loop); ok && inner.Parallel {
				out = append(out, l)
				break
			}
		}
	}
	return out
}

// Region is a SPECCROSS-transformed code region bound to program state.
// It implements speccross.Workload (plus Labeler).
type Region struct {
	Prog   *ir.Program
	Outer  *ir.Loop
	Inners []*ir.Loop

	base    *interp.Env
	workers []*interp.Env
	epochs  []epochInfo
	// frames holds one scalar frame (len(Prog.VarNames) values) per epoch,
	// back to back: the scalar environment the epoch's tasks observe.
	frames []int64
}

// epochInfo is one inner-loop invocation with its precomputed bounds.
type epochInfo struct {
	innerIdx int
	lo, hi   int64
}

// enter installs the epoch's scalar frame and the task's induction value on
// env and returns the inner loop to execute. Lowering only admits scalar
// reads dominated by a definition, so overwriting the whole frame (body
// temporaries included) cannot change what a task computes.
func (r *Region) enter(env *interp.Env, epoch, task int) *ir.Loop {
	e := &r.epochs[epoch]
	inner := r.Inners[e.innerIdx]
	copy(env.Vars, r.frames[epoch*len(env.Vars):])
	env.Vars[inner.VarSlot] = e.lo + int64(task)
	return inner
}

// New validates the region rooted at outer, replays its sequential control
// (outer loop + scalar-only interleaved code) against env to precompute the
// epoch schedule, and returns the executable region. maxWorkers bounds the
// worker thread IDs that will call Run.
func New(p *ir.Program, dep *depend.Result, outer *ir.Loop, env *interp.Env, maxWorkers int) (*Region, error) {
	r := &Region{Prog: p, Outer: outer, base: env}
	var seqNodes []ir.Node
	for _, n := range outer.Body {
		if l, ok := n.(*ir.Loop); ok && l.Parallel {
			r.Inners = append(r.Inners, l)
		} else {
			seqNodes = append(seqNodes, n)
		}
	}
	if len(r.Inners) == 0 {
		return nil, ErrNoParallelInner
	}

	// Privatizability check: sequential nodes (including the inner loops'
	// bound computations) must not store to arrays, and must not load from
	// arrays any parallel body writes.
	parallelWrites := map[string]bool{}
	for _, inner := range r.Inners {
		var instrs []*ir.Instr
		collectInstrs(inner.Body, &instrs)
		for _, in := range instrs {
			if in.Op == ir.Store {
				parallelWrites[in.Array] = true
			}
		}
	}
	var seqInstrs []*ir.Instr
	collectInstrs(seqNodes, &seqInstrs)
	for _, inner := range r.Inners {
		seqInstrs = append(seqInstrs, inner.Lo...)
		seqInstrs = append(seqInstrs, inner.Hi...)
	}
	for _, in := range seqInstrs {
		switch in.Op {
		case ir.Store:
			return nil, fmt.Errorf("%w (array %q at %s)", ErrSequentialStores, in.Array, in.Pos)
		case ir.Load:
			if parallelWrites[in.Array] {
				return nil, fmt.Errorf("%w (array %q at %s)", ErrSequentialReadsParallel, in.Array, in.Pos)
			}
		}
	}

	// Control replay: execute the outer loop's sequential skeleton on a
	// fork (shared arrays are only read) and record each epoch's bounds
	// and scalar snapshot.
	replay := env.Fork()
	lo, hi, err := replay.LoopBounds(outer)
	if err != nil {
		return nil, err
	}
	for t := lo; t < hi; t++ {
		replay.Vars[outer.VarSlot] = t
		seq := 0
		for _, n := range outer.Body {
			if l, ok := n.(*ir.Loop); ok && l.Parallel {
				elo, ehi, err := replay.LoopBounds(l)
				if err != nil {
					return nil, err
				}
				r.epochs = append(r.epochs, epochInfo{innerIdx: seq, lo: elo, hi: ehi})
				r.frames = append(r.frames, replay.Vars...)
				seq++
				continue
			}
			if err := replay.Exec([]ir.Node{n}); err != nil {
				return nil, err
			}
		}
	}

	if maxWorkers <= 0 {
		maxWorkers = 1
	}
	for i := 0; i < maxWorkers; i++ {
		r.workers = append(r.workers, env.Fork())
	}
	_ = dep
	return r, nil
}

func collectInstrs(nodes []ir.Node, out *[]*ir.Instr) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.Instr:
			*out = append(*out, n)
		case *ir.Loop:
			*out = append(*out, n.Lo...)
			*out = append(*out, n.Hi...)
			collectInstrs(n.Body, out)
		case *ir.If:
			*out = append(*out, n.Cond...)
			collectInstrs(n.Then, out)
			collectInstrs(n.Else, out)
		}
	}
}

// Epochs implements speccross.Workload.
func (r *Region) Epochs() int { return len(r.epochs) }

// Tasks implements speccross.Workload.
func (r *Region) Tasks(epoch int) int {
	e := r.epochs[epoch]
	if e.hi <= e.lo {
		return 0
	}
	return int(e.hi - e.lo)
}

// Run implements speccross.Workload: execute one inner-loop iteration on
// the worker's private environment, recording accesses into sig when
// speculating (this is where Algorithm 5's enter_task/spec_access/exit_task
// instrumentation lands).
func (r *Region) Run(epoch, task, tid int, sig *signature.Signature) {
	env := r.workers[tid]
	inner := r.enter(env, epoch, task)
	if sig != nil {
		env.Sink = sig
	} else {
		env.Sink = nil // not a nil *Signature inside a non-nil interface
	}
	if err := env.Exec(inner.Body); err != nil {
		// Speculative execution over inconsistent state may fault (e.g.
		// out-of-bounds through a stale index array); panicking here is the
		// §4.2.2 "segmentation fault" trigger, which the SPECCROSS engine
		// recovers from. Non-speculative execution re-raises it too: a real
		// program bug then surfaces during the barrier re-execution.
		panic(err)
	}
}

// Snapshot implements speccross.Workload.
func (r *Region) Snapshot() any { return r.base.Snapshot() }

// Restore implements speccross.Workload.
func (r *Region) Restore(s any) { r.base.Restore(s.([]int64)) }

// EpochLabel implements speccross.Labeler: epochs are named after the
// source position of their inner loop, so per-loop minimum dependence
// distances can be reported (Table 5.3).
func (r *Region) EpochLabel(epoch int) string {
	idx := r.epochs[epoch].innerIdx
	return fmt.Sprintf("L%d@%s", idx+1, r.Inners[idx].Pos)
}

// RunSpeculative executes the region under the SPECCROSS runtime.
func (r *Region) RunSpeculative(cfg speccross.Config) speccross.Stats {
	return speccross.Run(r, cfg)
}

// RunBarriers executes the region with the non-speculative baseline.
func (r *Region) RunBarriers(workers int) {
	speccross.RunBarriers(r, workers)
}

// Profile runs the §4.4 profiling pass over the region, comparing within
// the default checkpoint period (speccross.DefaultProfileWindow): the
// engine never overlaps epochs across a checkpoint, so the windowed pass is
// exact for default configurations while staying linear in epochs.
func (r *Region) Profile(kind signature.Kind) speccross.ProfileResult {
	return speccross.Profile(r, kind, speccross.DefaultProfileWindow)
}

// Trace exports the region's virtual-time structure by replaying every task
// on a scratch fork, counting interpreted instructions as the cost measure
// and recording the flat addresses each task touches. unitCost scales
// instructions to virtual time units (≤0 defaults to 100 — native compiled
// loop bodies do more per statement than one interpreted instruction, so
// the default keeps demo programs in the cost regime of the calibrated
// benchmarks).
func (r *Region) Trace(unitCost int64) *sim.Trace {
	if unitCost <= 0 {
		unitCost = 100
	}
	scratch := r.base.Fork()
	scratch.Mem = r.base.Snapshot() // private copy: replay must not mutate
	var acc accessLog
	scratch.Sink = &acc
	tr := &sim.Trace{Name: r.Prog.Name}
	for epoch := 0; epoch < r.Epochs(); epoch++ {
		ep := sim.Epoch{SeqCost: 50 * unitCost}
		for task := 0; task < r.Tasks(epoch); task++ {
			acc = accessLog{}
			inner := r.enter(scratch, epoch, task)
			before := scratch.Steps
			if err := scratch.Exec(inner.Body); err != nil {
				// Replay over the scratch copy diverging from live state can
				// fault; cost the task with what executed so far.
				_ = err
			}
			ep.Tasks = append(ep.Tasks, sim.Task{
				Cost:   (scratch.Steps - before) * unitCost,
				Reads:  acc.reads,
				Writes: acc.writes,
			})
		}
		tr.Epochs = append(tr.Epochs, ep)
	}
	return tr
}

// accessLog is the interp.Sink Trace records each task's addresses with.
type accessLog struct{ reads, writes []uint64 }

func (a *accessLog) Read(addr uint64)  { a.reads = append(a.reads, addr) }
func (a *accessLog) Write(addr uint64) { a.writes = append(a.writes, addr) }
