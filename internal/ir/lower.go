package ir

import (
	"fmt"
	"sort"

	"crossinv/internal/lang/ast"
	"crossinv/internal/lang/token"
)

// LowerError is a semantic error found during lowering.
type LowerError struct {
	Pos token.Pos
	Msg string
}

// Error implements error.
func (e *LowerError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lower translates an AST into the IR, verifying that array references name
// declared arrays, array sizes are compile-time constants, and scalar reads
// are dominated by a definition (an induction variable or prior assignment).
func Lower(prog *ast.Program) (*Program, error) {
	l := &lowerer{
		p: &Program{
			Name:      prog.Name,
			Arrays:    map[string]int64{},
			ArrayBase: map[string]uint64{},
		},
		scalars:   map[string]bool{},
		arraySlot: map[string]int{},
		varSlot:   map[string]int{},
	}
	for _, d := range prog.Arrays {
		size, err := constEval(d.Size)
		if err != nil {
			return nil, &LowerError{Pos: d.Pos(), Msg: "array size must be a constant expression"}
		}
		if size <= 0 {
			return nil, &LowerError{Pos: d.Pos(), Msg: fmt.Sprintf("array size must be positive, got %d", size)}
		}
		if _, dup := l.p.Arrays[d.Name]; dup {
			return nil, &LowerError{Pos: d.Pos(), Msg: fmt.Sprintf("array %q redeclared", d.Name)}
		}
		l.arraySlot[d.Name] = len(l.p.ArrayNames)
		l.p.Arrays[d.Name] = size
		l.p.ArrayBase[d.Name] = l.p.AddrSpace
		l.p.ArrayNames = append(l.p.ArrayNames, d.Name)
		l.p.ArraySizes = append(l.p.ArraySizes, size)
		l.p.ArrayBases = append(l.p.ArrayBases, l.p.AddrSpace)
		l.p.AddrSpace += uint64(size)
	}
	l.p.ArraySorted = make([]int, len(l.p.ArrayNames))
	for i := range l.p.ArraySorted {
		l.p.ArraySorted[i] = i
	}
	sort.Slice(l.p.ArraySorted, func(i, j int) bool {
		return l.p.ArrayNames[l.p.ArraySorted[i]] < l.p.ArrayNames[l.p.ArraySorted[j]]
	})
	body, err := l.stmts(prog.Body)
	if err != nil {
		return nil, err
	}
	l.p.Body = body
	l.p.NumRegs = int(l.nextReg)
	numberLoops(l.p)
	return l.p, nil
}

// numberLoops assigns Loop IDs in preorder and records them in p.Loops.
func numberLoops(p *Program) {
	p.Loops = p.Loops[:0]
	var walk func(nodes []Node)
	walk = func(nodes []Node) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *Loop:
				n.ID = len(p.Loops)
				p.Loops = append(p.Loops, n)
				walk(n.Body)
			case *If:
				walk(n.Then)
				walk(n.Else)
			}
		}
	}
	walk(p.Body)
}

type lowerer struct {
	p         *Program
	nextReg   Reg
	scalars   map[string]bool // defined scalar names (induction vars, assignments)
	arraySlot map[string]int
	varSlot   map[string]int
}

// slotOf interns a scalar or induction-variable name.
func (l *lowerer) slotOf(name string) int {
	s, ok := l.varSlot[name]
	if !ok {
		s = len(l.p.VarNames)
		l.varSlot[name] = s
		l.p.VarNames = append(l.p.VarNames, name)
	}
	return s
}

func (l *lowerer) reg() Reg {
	r := l.nextReg
	l.nextReg++
	return r
}

func (l *lowerer) emit(out *[]*Instr, in Instr) *Instr {
	in.ID = len(l.p.Instrs)
	p := &in
	l.p.Instrs = append(l.p.Instrs, p)
	*out = append(*out, p)
	return p
}

// constEval folds an expression made only of literals and operators.
func constEval(e ast.Expr) (int64, error) {
	switch e := e.(type) {
	case *ast.Num:
		return e.Value, nil
	case *ast.Bin:
		a, err := constEval(e.L)
		if err != nil {
			return 0, err
		}
		b, err := constEval(e.R)
		if err != nil {
			return 0, err
		}
		return applyOp(e.Op, a, b), nil
	default:
		return 0, fmt.Errorf("not constant")
	}
}

func applyOp(op ast.Op, a, b int64) int64 {
	switch op {
	case ast.Add:
		return a + b
	case ast.Sub:
		return a - b
	case ast.Mul:
		return a * b
	case ast.Div:
		if b == 0 {
			return 0
		}
		return a / b
	case ast.Mod:
		if b == 0 {
			return 0
		}
		return a % b
	case ast.Eq:
		return b2i(a == b)
	case ast.Ne:
		return b2i(a != b)
	case ast.Lt:
		return b2i(a < b)
	case ast.Le:
		return b2i(a <= b)
	case ast.Gt:
		return b2i(a > b)
	case ast.Ge:
		return b2i(a >= b)
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

var astToIROp = map[ast.Op]Op{
	ast.Add: Add, ast.Sub: Sub, ast.Mul: Mul, ast.Div: Div, ast.Mod: Mod,
	ast.Eq: CmpEq, ast.Ne: CmpNe, ast.Lt: CmpLt, ast.Le: CmpLe,
	ast.Gt: CmpGt, ast.Ge: CmpGe,
}

// expr lowers e, appending instructions to out and returning the result reg.
func (l *lowerer) expr(e ast.Expr, out *[]*Instr) (Reg, error) {
	switch e := e.(type) {
	case *ast.Num:
		r := l.reg()
		l.emit(out, Instr{Op: Const, Dst: r, Imm: e.Value, Pos: e.Pos()})
		return r, nil
	case *ast.Ref:
		if !l.scalars[e.Name] {
			return 0, &LowerError{Pos: e.Pos(), Msg: fmt.Sprintf("undefined variable %q", e.Name)}
		}
		r := l.reg()
		l.emit(out, Instr{Op: ReadVar, Dst: r, Var: e.Name, Slot: l.slotOf(e.Name), Pos: e.Pos()})
		return r, nil
	case *ast.Index:
		slot, ok := l.arraySlot[e.Array]
		if !ok {
			return 0, &LowerError{Pos: e.Pos(), Msg: fmt.Sprintf("undeclared array %q", e.Array)}
		}
		idx, err := l.expr(e.Idx, out)
		if err != nil {
			return 0, err
		}
		r := l.reg()
		l.emit(out, Instr{Op: Load, Dst: r, A: idx, Array: e.Array, Slot: slot, Pos: e.Pos()})
		return r, nil
	case *ast.Bin:
		a, err := l.expr(e.L, out)
		if err != nil {
			return 0, err
		}
		b, err := l.expr(e.R, out)
		if err != nil {
			return 0, err
		}
		r := l.reg()
		l.emit(out, Instr{Op: astToIROp[e.Op], Dst: r, A: a, B: b, Pos: e.Pos()})
		return r, nil
	default:
		return 0, &LowerError{Pos: e.Pos(), Msg: "unsupported expression"}
	}
}

func (l *lowerer) stmts(stmts []ast.Stmt) ([]Node, error) {
	var nodes []Node
	appendInstrs := func(instrs []*Instr) {
		for _, in := range instrs {
			nodes = append(nodes, in)
		}
	}
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.Assign:
			var seq []*Instr
			if s.Index != nil {
				slot, ok := l.arraySlot[s.Target]
				if !ok {
					return nil, &LowerError{Pos: s.Pos(), Msg: fmt.Sprintf("undeclared array %q", s.Target)}
				}
				idx, err := l.expr(s.Index, &seq)
				if err != nil {
					return nil, err
				}
				val, err := l.expr(s.Value, &seq)
				if err != nil {
					return nil, err
				}
				l.emit(&seq, Instr{Op: Store, A: idx, B: val, Array: s.Target, Slot: slot, Pos: s.Pos()})
			} else {
				if _, isArray := l.p.Arrays[s.Target]; isArray {
					return nil, &LowerError{Pos: s.Pos(), Msg: fmt.Sprintf("array %q assigned without index", s.Target)}
				}
				val, err := l.expr(s.Value, &seq)
				if err != nil {
					return nil, err
				}
				l.emit(&seq, Instr{Op: WriteVar, A: val, Var: s.Target, Slot: l.slotOf(s.Target), Pos: s.Pos()})
				l.scalars[s.Target] = true
			}
			appendInstrs(seq)
		case *ast.For:
			varSlot := l.slotOf(s.Var)
			var lo, hi []*Instr
			loReg, err := l.expr(s.Lo, &lo)
			if err != nil {
				return nil, err
			}
			hiReg, err := l.expr(s.Hi, &hi)
			if err != nil {
				return nil, err
			}
			outer := l.scalars[s.Var]
			l.scalars[s.Var] = true
			body, err := l.stmts(s.Body)
			if err != nil {
				return nil, err
			}
			l.scalars[s.Var] = outer
			loop := &Loop{
				Var: s.Var, VarSlot: varSlot,
				Lo: lo, Hi: hi, LoReg: loReg, HiReg: hiReg,
				Body: body, Parallel: s.Parallel, Pos: s.Pos(),
			}
			nodes = append(nodes, loop)
		case *ast.If:
			var cond []*Instr
			condReg, err := l.expr(s.Cond, &cond)
			if err != nil {
				return nil, err
			}
			then, err := l.stmts(s.Then)
			if err != nil {
				return nil, err
			}
			els, err := l.stmts(s.Else)
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, &If{Cond: cond, CondReg: condReg, Then: then, Else: els, Pos: s.Pos()})
		default:
			return nil, &LowerError{Pos: s.Pos(), Msg: "unsupported statement"}
		}
	}
	return nodes, nil
}
