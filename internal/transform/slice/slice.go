// Package slice generates computeAddr programs by reverse program slicing
// (§3.3.4, Algorithm 3): for each inner-loop body, the address operands of
// memory accesses involved in cross-iteration or cross-invocation
// dependences are sliced backwards through register and scalar dataflow,
// yielding a side-effect-free instruction sequence the DOMORE scheduler
// executes redundantly to predict each iteration's address set.
//
// Two abort conditions mirror the paper's:
//
//   - the slice would contain a side-effecting instruction (a store), or a
//     load from an array the workers write — the Fig 4.1 situation, where
//     the inspector cannot run ahead of the updates;
//   - the performance guard: the slice is too heavy relative to the body,
//     so the sequential scheduler would bottleneck the pipeline.
package slice

import (
	"errors"
	"fmt"

	"crossinv/internal/analysis/depend"
	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
)

// ErrSideEffect reports that slicing would duplicate a side-effecting
// instruction into computeAddr.
var ErrSideEffect = errors.New("slice: computeAddr would have side effects")

// ErrWorkerState reports that the slice must read state the workers mutate,
// so the scheduler cannot compute addresses ahead of execution.
var ErrWorkerState = errors.New("slice: computeAddr reads worker-updated arrays; DOMORE inapplicable")

// ErrTooHeavy reports the performance-guard failure.
var ErrTooHeavy = errors.New("slice: computeAddr too heavy relative to loop body (performance guard)")

// ComputeAddr is a generated address-computation program for one inner loop.
type ComputeAddr struct {
	// Inner is the loop the slice belongs to.
	Inner *ir.Loop
	// Instrs is the slice, in original program order. It references the
	// inner loop's induction variable and scheduler-computed scalars.
	Instrs []*ir.Instr
	// Addrs lists each tracked memory instruction with the register that
	// holds its address after executing Instrs, in body order — the order
	// the scheduler feeds one iteration's addresses to shadow memory, and
	// with it the order of the sync conditions it forwards.
	Addrs []TrackedAddr
	// Weight is len(Instrs) / len(body instructions): the quantity the
	// performance guard thresholds (Table 5.2 reports the measured
	// scheduler/worker time ratio for the same programs).
	Weight float64
}

// TrackedAddr names one tracked access: the memory instruction's ID and the
// register its index operand lives in.
type TrackedAddr struct {
	Instr int
	Reg   ir.Reg
}

// Options tunes generation.
type Options struct {
	// MaxWeight is the performance-guard threshold (default 0.9: the slice
	// must be strictly lighter than the body it predicts).
	MaxWeight float64
}

// Eval runs the slice on env, whose scalars must hold the invocation's
// live-ins and the inner loop's induction value, and appends each distinct
// tracked address to buf in tracked order, so an iteration's shadow-memory
// updates and sync conditions are the same on every run. Out-of-bounds
// loads and addresses, computed by instructions hoisted out of untaken
// branches, are skipped; no real address is missed, because every access
// the body executes is tracked. A failing instruction is skipped too: Eval
// still appends every address and returns the first failure, so no caller
// schedules an iteration with fewer addresses than the slice computed. Eval
// writes only env's registers.
func (ca *ComputeAddr) Eval(env *interp.Env, buf []uint64) ([]uint64, error) {
	p := env.Prog
	regs := env.Regs
	var first error
	for _, in := range ca.Instrs {
		// The only instruction of a store-free slice that can fault is a
		// load; checking its index here keeps the skip off the error path.
		if in.Op == ir.Load && uint64(regs[in.A]) >= uint64(p.ArraySizes[in.Slot]) {
			continue
		}
		if err := env.Step(in); err != nil && first == nil {
			first = err
		}
	}
	start := len(buf)
next:
	for _, t := range ca.Addrs {
		slot := p.Instrs[t.Instr].Slot
		idx := regs[t.Reg]
		if uint64(idx) >= uint64(p.ArraySizes[slot]) {
			continue
		}
		addr := p.ArrayBases[slot] + uint64(idx)
		for _, a := range buf[start:] {
			if a == addr {
				continue next
			}
		}
		buf = append(buf, addr)
	}
	return buf, first
}

// Generate builds the computeAddr slice for inner, tracking the memory
// instructions that participate in dependences the runtime must enforce.
// workerWrites is the set of arrays written by any worker-side instruction
// in the region; a slice that loads from one of them is rejected.
func Generate(p *ir.Program, dep *depend.Result, inner *ir.Loop, workerWrites map[string]bool, opts Options) (*ComputeAddr, error) {
	if opts.MaxWeight <= 0 {
		opts.MaxWeight = 0.9
	}

	// Body instructions in original order. Memory accesses inside loops
	// nested under the parallel loop would need a structured (looping)
	// computeAddr; the generator rejects them, mirroring the paper's
	// transformation aborting on slices it cannot express.
	if nestedAccess(inner.Body, false) {
		return nil, fmt.Errorf("slice: loop %q has memory accesses in nested loops", inner.Var)
	}
	var body []*ir.Instr
	collectInstrs(inner.Body, &body)
	if len(body) == 0 {
		return nil, fmt.Errorf("slice: loop %q has an empty body", inner.Var)
	}
	inBody := map[int]*ir.Instr{}
	defOf := map[ir.Reg]*ir.Instr{}
	for _, in := range body {
		inBody[in.ID] = in
		if in.Op.HasDst() {
			defOf[in.Dst] = in
		}
	}

	// Seed: address operands of every tracked access. DOMORE must know all
	// addresses an iteration touches, so every load and store of shared
	// arrays is tracked (Algorithm 1 updates shadow memory for the full
	// address set).
	ca := &ComputeAddr{Inner: inner}
	need := map[int]bool{} // instruction IDs in the slice
	var work []ir.Reg
	for _, in := range body {
		switch in.Op {
		case ir.Load, ir.Store:
			ca.Addrs = append(ca.Addrs, TrackedAddr{Instr: in.ID, Reg: in.A})
			work = append(work, in.A)
		}
	}

	// Backward closure over register dataflow within the body. Registers
	// defined outside the body (scheduler scalars, loop bounds) are slice
	// inputs — the scheduler computes them anyway.
	seen := map[ir.Reg]bool{}
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[r] {
			continue
		}
		seen[r] = true
		def, ok := defOf[r]
		if !ok {
			continue
		}
		if need[def.ID] {
			continue
		}
		need[def.ID] = true
		switch def.Op {
		case ir.Store, ir.WriteVar:
			return nil, ErrSideEffect
		case ir.Load:
			if workerWrites[def.Array] {
				return nil, ErrWorkerState
			}
			work = append(work, def.A)
		case ir.Const, ir.ReadVar:
			// leaves
		default:
			work = append(work, def.A, def.B)
		}
	}

	for _, in := range body {
		if need[in.ID] {
			ca.Instrs = append(ca.Instrs, in)
		}
	}
	ca.Weight = float64(len(ca.Instrs)) / float64(len(body))
	if ca.Weight > opts.MaxWeight {
		return nil, fmt.Errorf("%w: weight %.2f > %.2f", ErrTooHeavy, ca.Weight, opts.MaxWeight)
	}
	_ = dep
	return ca, nil
}

func collectInstrs(nodes []ir.Node, out *[]*ir.Instr) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.Instr:
			*out = append(*out, n)
		case *ir.Loop:
			for _, in := range n.Lo {
				*out = append(*out, in)
			}
			for _, in := range n.Hi {
				*out = append(*out, in)
			}
			collectInstrs(n.Body, out)
		case *ir.If:
			for _, in := range n.Cond {
				*out = append(*out, in)
			}
			collectInstrs(n.Then, out)
			collectInstrs(n.Else, out)
		}
	}
}

// nestedAccess reports whether any load/store sits inside a loop nested in
// the node list (inLoop marks that we are already below one nesting level).
func nestedAccess(nodes []ir.Node, inLoop bool) bool {
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.Instr:
			if inLoop && (n.Op == ir.Load || n.Op == ir.Store) {
				return true
			}
		case *ir.Loop:
			if nestedAccess(n.Body, true) {
				return true
			}
		case *ir.If:
			if nestedAccess(n.Then, inLoop) || nestedAccess(n.Else, inLoop) {
				return true
			}
		}
	}
	return false
}
