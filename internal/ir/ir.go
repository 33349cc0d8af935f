// Package ir defines the crossinv compiler's intermediate representation: a
// structured loop tree whose straight-line regions are flattened into
// three-address instructions over virtual registers (the "pseudo IR" of
// Fig 3.6(a)). Scalars and loop induction variables are accessed through
// named-variable reads/writes rather than SSA φ-nodes, which keeps the PDG,
// slicing, and MTCG analyses direct while preserving instruction-level
// granularity.
package ir

import (
	"fmt"
	"strings"

	"crossinv/internal/lang/token"
)

// Reg is a virtual register index.
type Reg int32

// Op enumerates instruction opcodes.
type Op int

// Opcodes.
const (
	Const    Op = iota // Dst = Imm
	Add                // Dst = A + B
	Sub                // Dst = A - B
	Mul                // Dst = A * B
	Div                // Dst = A / B (0 on division by zero)
	Mod                // Dst = A % B (0 on modulo by zero)
	CmpEq              // Dst = A == B
	CmpNe              // Dst = A != B
	CmpLt              // Dst = A < B
	CmpLe              // Dst = A <= B
	CmpGt              // Dst = A > B
	CmpGe              // Dst = A >= B
	Load               // Dst = Array[A]
	Store              // Array[A] = B
	ReadVar            // Dst = Var
	WriteVar           // Var = A
)

var opNames = [...]string{
	"const", "add", "sub", "mul", "div", "mod",
	"eq", "ne", "lt", "le", "gt", "ge",
	"load", "store", "readvar", "writevar",
}

// String returns the opcode mnemonic.
func (o Op) String() string { return opNames[o] }

// Instr is one three-address instruction.
type Instr struct {
	ID    int // global instruction identity; PDG node index
	Op    Op
	Dst   Reg
	A, B  Reg
	Imm   int64
	Array string // Load/Store
	Var   string // ReadVar/WriteVar
	// Slot is the name resolved at lowering: the index of Array in
	// Program.ArrayNames for Load/Store, of Var in Program.VarNames for
	// ReadVar/WriteVar. The executor indexes by Slot; Array and Var stay
	// for the analyses and diagnostics.
	Slot int
	Pos  token.Pos
}

// String renders the instruction for dumps and tests.
func (in *Instr) String() string {
	switch in.Op {
	case Const:
		return fmt.Sprintf("r%d = const %d", in.Dst, in.Imm)
	case Load:
		return fmt.Sprintf("r%d = load %s[r%d]", in.Dst, in.Array, in.A)
	case Store:
		return fmt.Sprintf("store %s[r%d] = r%d", in.Array, in.A, in.B)
	case ReadVar:
		return fmt.Sprintf("r%d = readvar %s", in.Dst, in.Var)
	case WriteVar:
		return fmt.Sprintf("writevar %s = r%d", in.Var, in.A)
	default:
		return fmt.Sprintf("r%d = %s r%d, r%d", in.Dst, in.Op, in.A, in.B)
	}
}

// HasDst reports whether the opcode defines a register.
func (o Op) HasDst() bool { return o != Store && o != WriteVar }

// Node is a loop-tree node: *Instr, *Loop, or *If.
type Node interface{ node() }

func (*Instr) node() {}

// Loop is a counted loop over Var in [Lo, Hi); Lo and Hi are instruction
// sequences leaving their results in LoReg and HiReg. Parallel marks loops
// the front end asserted DOALL-able within one invocation (parfor).
type Loop struct {
	ID  int
	Var string
	// VarSlot is the index of Var in Program.VarNames.
	VarSlot      int
	Lo, Hi       []*Instr
	LoReg, HiReg Reg
	Body         []Node
	Parallel     bool
	Pos          token.Pos
}

func (*Loop) node() {}

// If is a structured conditional; Cond leaves its result in CondReg.
type If struct {
	Cond    []*Instr
	CondReg Reg
	Then    []Node
	Else    []Node
	Pos     token.Pos
}

func (*If) node() {}

// Program is a lowered LNL program.
type Program struct {
	Name string
	// Arrays maps array name to its (constant) size.
	Arrays map[string]int64
	// ArrayBase assigns each array a base offset in a single flat address
	// space, so runtime engines can shadow or summarize accesses uniformly:
	// the address of A[i] is ArrayBase["A"] + i.
	ArrayBase map[string]uint64
	// AddrSpace is the exclusive upper bound of the flat address space.
	AddrSpace uint64
	// ArrayNames, ArraySizes and ArrayBases are the slot-indexed form of
	// Arrays and ArrayBase, in declaration order: array slot i occupies
	// flat addresses [ArrayBases[i], ArrayBases[i]+ArraySizes[i]). Lower
	// fills both forms from the same declarations.
	ArrayNames []string
	ArraySizes []int64
	ArrayBases []uint64
	// ArraySorted lists the array slots in ascending name order, the order
	// interp.Env.Checksum folds them in.
	ArraySorted []int
	// VarNames lists scalars and induction variables by slot, in order of
	// first appearance.
	VarNames []string
	// Body is the top-level loop tree.
	Body []Node
	// NumRegs is the number of virtual registers.
	NumRegs int
	// Instrs lists every instruction by ID (including loop-bound and
	// condition instructions).
	Instrs []*Instr
	// Loops lists every loop by Loop.ID in preorder.
	Loops []*Loop
}

// Addr returns the flat address of array[idx].
func (p *Program) Addr(array string, idx int64) uint64 {
	return p.ArrayBase[array] + uint64(idx)
}

// ArraySlot returns the slot of the named array, or -1.
func (p *Program) ArraySlot(name string) int { return indexOf(p.ArrayNames, name) }

// VarSlot returns the slot of the named scalar, or -1.
func (p *Program) VarSlot(name string) int { return indexOf(p.VarNames, name) }

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// Dump renders the loop tree for golden tests and debugging.
func (p *Program) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for _, s := range p.ArraySorted {
		fmt.Fprintf(&b, "  array %s[%d] @%d\n", p.ArrayNames[s], p.ArraySizes[s], p.ArrayBases[s])
	}
	dumpNodes(&b, p.Body, 1)
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func dumpNodes(b *strings.Builder, nodes []Node, depth int) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *Instr:
			indent(b, depth)
			fmt.Fprintf(b, "%s\n", n)
		case *Loop:
			indent(b, depth)
			kw := "for"
			if n.Parallel {
				kw = "parfor"
			}
			fmt.Fprintf(b, "%s %s = r%d .. r%d {\n", kw, n.Var, n.LoReg, n.HiReg)
			for _, in := range n.Lo {
				indent(b, depth+1)
				fmt.Fprintf(b, "lo: %s\n", in)
			}
			for _, in := range n.Hi {
				indent(b, depth+1)
				fmt.Fprintf(b, "hi: %s\n", in)
			}
			dumpNodes(b, n.Body, depth+1)
			indent(b, depth)
			b.WriteString("}\n")
		case *If:
			indent(b, depth)
			fmt.Fprintf(b, "if r%d {\n", n.CondReg)
			dumpNodes(b, n.Then, depth+1)
			if len(n.Else) > 0 {
				indent(b, depth)
				b.WriteString("} else {\n")
				dumpNodes(b, n.Else, depth+1)
			}
			indent(b, depth)
			b.WriteString("}\n")
		}
	}
}
