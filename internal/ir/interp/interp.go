// Package interp executes crossinv IR. It is the sequential reference
// executor for compiled LNL programs, and — through its access sink — the
// substrate the runtime engines drive: the DOMORE adapter interprets the
// sliced computeAddr program and the worker body per iteration, and the
// SPECCROSS adapter records every load/store into a task signature exactly
// where Algorithm 5 would have inserted spec_access calls.
//
// Execution is slot-resolved: ir.Lower interned every array and scalar name
// into a dense slot, so the executor only indexes slices. All arrays live in
// one flat Mem whose index is the flat address the engines shadow and sign.
package interp

import (
	"fmt"

	"crossinv/internal/ir"
)

// Sink observes memory traffic during execution: Read fires before each
// array load and Write before each array store, with the flat address.
// *signature.Signature satisfies it.
type Sink interface {
	Read(addr uint64)
	Write(addr uint64)
}

// Env is an execution environment: the program's flat memory, scalar
// variables, and a register file. Environments are cheap to fork for
// worker-private scalars and registers while sharing memory.
type Env struct {
	Prog *ir.Program
	// Mem backs every array: slot i is Mem[ArrayBases[i]:][:ArraySizes[i]],
	// so an index into Mem is the flat address.
	Mem []int64
	// Vars holds scalars and induction variables by Program.VarNames slot.
	Vars []int64
	Regs []int64
	// Sink, when non-nil, sees every load and store. Assign nil, not a nil
	// pointer wrapped in the interface, to turn observation off.
	Sink Sink
	// Steps counts executed instructions; the virtual-time trace exporter
	// uses it as the per-task cost measure.
	Steps int64
}

// NewEnv allocates a zeroed environment for the program.
func NewEnv(p *ir.Program) *Env {
	nm, nv, nr := int(p.AddrSpace), len(p.VarNames), p.NumRegs
	buf := make([]int64, nm+nv+nr)
	return &Env{
		Prog: p,
		Mem:  buf[:nm:nm],
		Vars: buf[nm : nm+nv : nm+nv],
		Regs: buf[nm+nv:],
	}
}

// Fork returns an environment sharing the receiver's memory but with
// private scalars and registers — the per-worker state split MTCG performs
// (each thread owns its registers; shared memory stays shared).
func (e *Env) Fork() *Env {
	nv := len(e.Vars)
	buf := make([]int64, nv+len(e.Regs))
	copy(buf, e.Vars)
	return &Env{
		Prog: e.Prog,
		Mem:  e.Mem,
		Vars: buf[:nv:nv],
		Regs: buf[nv:],
		Sink: e.Sink,
	}
}

// Array returns the named array's window of Mem, or nil if the program
// declares no such array.
func (e *Env) Array(name string) []int64 {
	s := e.Prog.ArraySlot(name)
	if s < 0 {
		return nil
	}
	base := e.Prog.ArrayBases[s]
	return e.Mem[base : base+uint64(e.Prog.ArraySizes[s])]
}

// Snapshot copies the array state (the speculative state SPECCROSS
// checkpoints).
func (e *Env) Snapshot() []int64 {
	return append([]int64(nil), e.Mem...)
}

// Restore copies a snapshot back over the array state.
func (e *Env) Restore(snap []int64) {
	copy(e.Mem, snap)
}

// Checksum folds every array into one value, for cheap equivalence checks
// between execution strategies. Arrays fold in ascending name order, not
// layout order: cached plans store this value as the sequential oracle, so
// it must not depend on how memory is laid out.
func (e *Env) Checksum() uint64 {
	var h uint64 = 1469598103934665603
	p := e.Prog
	for _, s := range p.ArraySorted {
		base := p.ArrayBases[s]
		for _, v := range e.Mem[base : base+uint64(p.ArraySizes[s])] {
			h ^= uint64(v)
			h *= 1099511628211
		}
	}
	return h
}

// Exec runs a node sequence to completion.
func (e *Env) Exec(nodes []ir.Node) error {
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.Instr:
			if err := e.Step(n); err != nil {
				return err
			}
		case *ir.Loop:
			lo, hi, err := e.LoopBounds(n)
			if err != nil {
				return err
			}
			for i := lo; i < hi; i++ {
				e.Vars[n.VarSlot] = i
				if err := e.Exec(n.Body); err != nil {
					return err
				}
			}
		case *ir.If:
			if err := e.ExecInstrs(n.Cond); err != nil {
				return err
			}
			if e.Regs[n.CondReg] != 0 {
				if err := e.Exec(n.Then); err != nil {
					return err
				}
			} else if err := e.Exec(n.Else); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoopBounds evaluates a loop's bound sequences and returns [lo, hi).
func (e *Env) LoopBounds(l *ir.Loop) (lo, hi int64, err error) {
	if err := e.ExecInstrs(l.Lo); err != nil {
		return 0, 0, err
	}
	if err := e.ExecInstrs(l.Hi); err != nil {
		return 0, 0, err
	}
	return e.Regs[l.LoReg], e.Regs[l.HiReg], nil
}

// ExecInstrs runs a straight-line instruction sequence.
func (e *Env) ExecInstrs(instrs []*ir.Instr) error {
	for _, in := range instrs {
		if err := e.Step(in); err != nil {
			return err
		}
	}
	return nil
}

// OOBError reports an out-of-bounds array access.
type OOBError struct {
	Array string
	Index int64
	Size  int64
}

// Error implements error.
func (e *OOBError) Error() string {
	return fmt.Sprintf("index %d out of range for array %s[%d]", e.Index, e.Array, e.Size)
}

// Step executes one instruction.
func (e *Env) Step(in *ir.Instr) error {
	e.Steps++
	regs := e.Regs
	switch in.Op {
	case ir.Const:
		regs[in.Dst] = in.Imm
	case ir.Add:
		regs[in.Dst] = regs[in.A] + regs[in.B]
	case ir.Sub:
		regs[in.Dst] = regs[in.A] - regs[in.B]
	case ir.Mul:
		regs[in.Dst] = regs[in.A] * regs[in.B]
	case ir.Div:
		if regs[in.B] == 0 {
			regs[in.Dst] = 0
		} else {
			regs[in.Dst] = regs[in.A] / regs[in.B]
		}
	case ir.Mod:
		if regs[in.B] == 0 {
			regs[in.Dst] = 0
		} else {
			regs[in.Dst] = regs[in.A] % regs[in.B]
		}
	case ir.CmpEq:
		regs[in.Dst] = b2i(regs[in.A] == regs[in.B])
	case ir.CmpNe:
		regs[in.Dst] = b2i(regs[in.A] != regs[in.B])
	case ir.CmpLt:
		regs[in.Dst] = b2i(regs[in.A] < regs[in.B])
	case ir.CmpLe:
		regs[in.Dst] = b2i(regs[in.A] <= regs[in.B])
	case ir.CmpGt:
		regs[in.Dst] = b2i(regs[in.A] > regs[in.B])
	case ir.CmpGe:
		regs[in.Dst] = b2i(regs[in.A] >= regs[in.B])
	case ir.Load:
		idx := regs[in.A]
		if uint64(idx) >= uint64(e.Prog.ArraySizes[in.Slot]) {
			return e.oob(in, idx)
		}
		addr := e.Prog.ArrayBases[in.Slot] + uint64(idx)
		if e.Sink != nil {
			e.Sink.Read(addr)
		}
		regs[in.Dst] = e.Mem[addr]
	case ir.Store:
		idx := regs[in.A]
		if uint64(idx) >= uint64(e.Prog.ArraySizes[in.Slot]) {
			return e.oob(in, idx)
		}
		addr := e.Prog.ArrayBases[in.Slot] + uint64(idx)
		if e.Sink != nil {
			e.Sink.Write(addr)
		}
		e.Mem[addr] = regs[in.B]
	case ir.ReadVar:
		regs[in.Dst] = e.Vars[in.Slot]
	case ir.WriteVar:
		e.Vars[in.Slot] = regs[in.A]
	default:
		return fmt.Errorf("interp: unknown opcode %v", in.Op)
	}
	return nil
}

func (e *Env) oob(in *ir.Instr, idx int64) error {
	return &OOBError{Array: in.Array, Index: idx, Size: e.Prog.ArraySizes[in.Slot]}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Run parses nothing — it executes a whole lowered program from a fresh
// environment and returns it.
func Run(p *ir.Program) (*Env, error) {
	env := NewEnv(p)
	if err := env.Exec(p.Body); err != nil {
		return nil, err
	}
	return env, nil
}
