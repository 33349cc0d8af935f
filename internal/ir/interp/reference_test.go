package interp_test

// The parent commit's executor, kept verbatim as the differential
// reference: a tree walker that resolves every array, scalar and induction
// variable through the program's name-keyed maps. It reads only Instr.Array,
// Instr.Var, Loop.Var, Program.Arrays and Program.ArrayBase — never a slot —
// so agreeing with it checks ir.Lower's slot stamping and the flat-memory
// executor together (FuzzExecAgreesWithReference).

import (
	"fmt"

	"crossinv/internal/ir"
)

// refHooks observe memory traffic during execution. Either hook may be nil.
type refHooks struct {
	// OnLoad fires before each array load with the flat address.
	OnLoad func(addr uint64)
	// OnStore fires before each array store with the flat address.
	OnStore func(addr uint64)
}

// refEnv is an execution environment: the program's arrays, scalar
// variables, and a register file.
type refEnv struct {
	Prog   *ir.Program
	Arrays map[string][]int64
	Vars   map[string]int64
	Regs   []int64
	Hooks  refHooks
	// Steps counts executed instructions, for comparison with Env.Steps.
	Steps int64
}

// newRefEnv allocates a zeroed environment for the program.
func newRefEnv(p *ir.Program) *refEnv {
	e := &refEnv{
		Prog:   p,
		Arrays: make(map[string][]int64, len(p.Arrays)),
		Vars:   map[string]int64{},
		Regs:   make([]int64, p.NumRegs),
	}
	for name, size := range p.Arrays {
		e.Arrays[name] = make([]int64, size)
	}
	return e
}

// Checksum folds every array into one value, for cheap equivalence checks
// between execution strategies.
func (e *refEnv) Checksum() uint64 {
	var h uint64 = 1469598103934665603
	names := make([]string, 0, len(e.Arrays))
	for n := range e.Arrays {
		names = append(names, n)
	}
	// Sort for determinism.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, n := range names {
		for _, v := range e.Arrays[n] {
			h ^= uint64(v)
			h *= 1099511628211
		}
	}
	return h
}

// Exec runs a node sequence to completion.
func (e *refEnv) Exec(nodes []ir.Node) error {
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
				e.Vars[n.Var] = i
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
func (e *refEnv) LoopBounds(l *ir.Loop) (lo, hi int64, err error) {
	if err := e.ExecInstrs(l.Lo); err != nil {
		return 0, 0, err
	}
	if err := e.ExecInstrs(l.Hi); err != nil {
		return 0, 0, err
	}
	return e.Regs[l.LoReg], e.Regs[l.HiReg], nil
}

// ExecInstrs runs a straight-line instruction sequence.
func (e *refEnv) ExecInstrs(instrs []*ir.Instr) error {
	for _, in := range instrs {
		if err := e.Step(in); err != nil {
			return err
		}
	}
	return nil
}

// refOOBError reports an out-of-bounds array access.
type refOOBError struct {
	Array string
	Index int64
	Size  int64
}

// Error implements error.
func (e *refOOBError) Error() string {
	return fmt.Sprintf("index %d out of range for array %s[%d]", e.Index, e.Array, e.Size)
}

// Step executes one instruction.
func (e *refEnv) Step(in *ir.Instr) error {
	e.Steps++
	switch in.Op {
	case ir.Const:
		e.Regs[in.Dst] = in.Imm
	case ir.Add:
		e.Regs[in.Dst] = e.Regs[in.A] + e.Regs[in.B]
	case ir.Sub:
		e.Regs[in.Dst] = e.Regs[in.A] - e.Regs[in.B]
	case ir.Mul:
		e.Regs[in.Dst] = e.Regs[in.A] * e.Regs[in.B]
	case ir.Div:
		if e.Regs[in.B] == 0 {
			e.Regs[in.Dst] = 0
		} else {
			e.Regs[in.Dst] = e.Regs[in.A] / e.Regs[in.B]
		}
	case ir.Mod:
		if e.Regs[in.B] == 0 {
			e.Regs[in.Dst] = 0
		} else {
			e.Regs[in.Dst] = e.Regs[in.A] % e.Regs[in.B]
		}
	case ir.CmpEq:
		e.Regs[in.Dst] = refB2i(e.Regs[in.A] == e.Regs[in.B])
	case ir.CmpNe:
		e.Regs[in.Dst] = refB2i(e.Regs[in.A] != e.Regs[in.B])
	case ir.CmpLt:
		e.Regs[in.Dst] = refB2i(e.Regs[in.A] < e.Regs[in.B])
	case ir.CmpLe:
		e.Regs[in.Dst] = refB2i(e.Regs[in.A] <= e.Regs[in.B])
	case ir.CmpGt:
		e.Regs[in.Dst] = refB2i(e.Regs[in.A] > e.Regs[in.B])
	case ir.CmpGe:
		e.Regs[in.Dst] = refB2i(e.Regs[in.A] >= e.Regs[in.B])
	case ir.Load:
		arr := e.Arrays[in.Array]
		idx := e.Regs[in.A]
		if idx < 0 || idx >= int64(len(arr)) {
			return &refOOBError{Array: in.Array, Index: idx, Size: int64(len(arr))}
		}
		if e.Hooks.OnLoad != nil {
			e.Hooks.OnLoad(e.Prog.Addr(in.Array, idx))
		}
		e.Regs[in.Dst] = arr[idx]
	case ir.Store:
		arr := e.Arrays[in.Array]
		idx := e.Regs[in.A]
		if idx < 0 || idx >= int64(len(arr)) {
			return &refOOBError{Array: in.Array, Index: idx, Size: int64(len(arr))}
		}
		if e.Hooks.OnStore != nil {
			e.Hooks.OnStore(e.Prog.Addr(in.Array, idx))
		}
		arr[idx] = e.Regs[in.B]
	case ir.ReadVar:
		e.Regs[in.Dst] = e.Vars[in.Var]
	case ir.WriteVar:
		e.Vars[in.Var] = e.Regs[in.A]
	default:
		return fmt.Errorf("interp: unknown opcode %v", in.Op)
	}
	return nil
}

func refB2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
