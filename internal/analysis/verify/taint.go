package verify

import "crossinv/internal/ir"

// Taint is the result of the shared value-taint fixpoint: which registers
// and scalar variables may hold values derived from a designated set of
// taint sources. The slice-purity check reduces to it (§3.3.4: the
// computeAddr slice must never read a value the worker partition may
// write), and compiled-region DOMORE is that slice, in both domore and
// adaptive modes.
type Taint struct {
	Reg map[ir.Reg]bool
	Var map[string]bool
}

// TaintFromArrays runs the taint fixpoint over a straight-line-ish
// instruction list (the flattened body of a loop nest): a register becomes
// tainted when it loads from a source array, reads a tainted scalar, or
// combines a tainted operand; a scalar becomes tainted when written from a
// tainted register. Because taint can round-trip through scalar variables
// across textual order (and across iterations of the enclosing loop), the
// propagation iterates until nothing new is tainted — the conservative
// any-iteration closure.
func TaintFromArrays(instrs []*ir.Instr, sources map[string]bool) *Taint {
	t := &Taint{Reg: map[ir.Reg]bool{}, Var: map[string]bool{}}
	if len(sources) == 0 {
		return t
	}
	for changed := true; changed; {
		changed = false
		mark := func(reg ir.Reg, ok bool) bool { return ok && !t.Reg[reg] }
		for _, in := range instrs {
			switch in.Op {
			case ir.Load:
				if mark(in.Dst, sources[in.Array]) {
					t.Reg[in.Dst] = true
					changed = true
				}
			case ir.ReadVar:
				if mark(in.Dst, t.Var[in.Var]) {
					t.Reg[in.Dst] = true
					changed = true
				}
			case ir.WriteVar:
				if t.Reg[in.A] && !t.Var[in.Var] {
					t.Var[in.Var] = true
					changed = true
				}
			case ir.Store, ir.Const:
				// Stores don't define registers, and Const reads no operand
				// registers (its A/B fields are zero-valued, not register 0
				// uses); loads of the source arrays are the taint entry.
			default:
				if mark(in.Dst, t.Reg[in.A] || t.Reg[in.B]) {
					t.Reg[in.Dst] = true
					changed = true
				}
			}
		}
	}
	return t
}

// Uses returns the registers an instruction reads.
func Uses(in *ir.Instr) []ir.Reg {
	switch in.Op {
	case ir.Const, ir.ReadVar:
		return nil
	case ir.Load:
		return []ir.Reg{in.A}
	case ir.Store:
		return []ir.Reg{in.A, in.B}
	case ir.WriteVar:
		return []ir.Reg{in.A}
	default:
		return []ir.Reg{in.A, in.B}
	}
}
