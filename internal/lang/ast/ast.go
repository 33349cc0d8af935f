// Package ast defines the abstract syntax tree of the loop-nest language.
//
// An LNL program is one function containing array declarations, scalar
// assignments, counted loops (for / parfor), and conditionals over integer
// expressions. parfor asserts that the programmer (or an earlier analysis)
// considers the loop's iterations independent within one invocation — the
// shape every benchmark in Table 5.1 exhibits; the crossinv pipeline still
// verifies the claim with its own dependence analysis.
package ast

import "crossinv/internal/lang/token"

// Node is any AST node.
type Node interface {
	Pos() token.Pos
}

// Program is a whole LNL compilation unit: `func name() { ... }`.
type Program struct {
	Name    string
	Arrays  []*ArrayDecl
	Body    []Stmt
	NamePos token.Pos
}

// Pos implements Node.
func (p *Program) Pos() token.Pos { return p.NamePos }

// ArrayDecl declares a shared array of a constant size: `var A[100]`.
type ArrayDecl struct {
	Name    string
	Size    Expr
	DeclPos token.Pos
}

// Pos implements Node.
func (d *ArrayDecl) Pos() token.Pos { return d.DeclPos }

// Stmt is a statement.
type Stmt interface {
	Node
	stmt()
}

// Assign stores RHS into an array element or scalar: `A[i] = e` or `x = e`.
type Assign struct {
	Target    string // array or scalar name
	Index     Expr   // nil for scalar assignment
	Value     Expr
	TargetPos token.Pos
}

// Pos implements Node.
func (a *Assign) Pos() token.Pos { return a.TargetPos }
func (a *Assign) stmt()          {}

// For is a counted loop `for i = lo .. hi { body }` iterating i in [lo, hi).
// Parallel marks parfor loops.
type For struct {
	Var      string
	Lo, Hi   Expr
	Body     []Stmt
	Parallel bool
	ForPos   token.Pos
}

// Pos implements Node.
func (f *For) Pos() token.Pos { return f.ForPos }
func (f *For) stmt()          {}

// If is a two-armed conditional `if cond { } else { }` (else optional).
type If struct {
	Cond  Expr
	Then  []Stmt
	Else  []Stmt
	IfPos token.Pos
}

// Pos implements Node.
func (i *If) Pos() token.Pos { return i.IfPos }
func (i *If) stmt()          {}

// Expr is an integer-valued expression.
type Expr interface {
	Node
	expr()
}

// Num is an integer literal.
type Num struct {
	Value  int64
	NumPos token.Pos
}

// Pos implements Node.
func (n *Num) Pos() token.Pos { return n.NumPos }
func (n *Num) expr()          {}

// Ref reads a scalar variable (a loop induction variable or assigned scalar).
type Ref struct {
	Name   string
	RefPos token.Pos
}

// Pos implements Node.
func (r *Ref) Pos() token.Pos { return r.RefPos }
func (r *Ref) expr()          {}

// Index reads an array element: `A[e]`.
type Index struct {
	Array  string
	Idx    Expr
	ArrPos token.Pos
}

// Pos implements Node.
func (x *Index) Pos() token.Pos { return x.ArrPos }
func (x *Index) expr()          {}

// Op is a binary operator.
type Op int

// Binary operators. Comparisons yield 0 or 1.
const (
	Add Op = iota
	Sub
	Mul
	Div
	Mod
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
)

var opNames = [...]string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="}

// String returns the operator's source spelling.
func (o Op) String() string { return opNames[o] }

// Bin is a binary expression.
type Bin struct {
	Op   Op
	L, R Expr
	// OpPos is the operator token's position; diagnostics for the lowered
	// arithmetic instruction point here rather than at the left operand.
	OpPos token.Pos
}

// Pos implements Node. It prefers the operator's own position and falls
// back to the left operand for synthesized nodes without one.
func (b *Bin) Pos() token.Pos {
	if b.OpPos.Line != 0 {
		return b.OpPos
	}
	return b.L.Pos()
}
func (b *Bin) expr() {}
