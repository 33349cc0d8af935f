package interp_test

import (
	"fmt"
	"math/rand"
	"strings"

	"crossinv/internal/ir"
	"crossinv/internal/lang/parser"
)

// compile parses and lowers src, reporting ok=false for text the front end
// rejects.
func compile(src string) (*ir.Program, bool) {
	tree, err := parser.Parse(src)
	if err != nil {
		return nil, false
	}
	p, err := ir.Lower(tree)
	return p, err == nil
}

// progGen writes a random LNL program from a stream of choice bytes, so the
// fuzzer's coverage guidance steers program shape. An exhausted stream
// answers 0 to every choice, which closes every open construct.
//
// Programs stay inside what ir.Lower accepts (scalars are read only after a
// textually earlier definition) but not inside what executes cleanly:
// indices may run out of bounds, divisors may be zero, loops may be
// zero-trip. Array names are declared out of alphabetical order so layout
// order and Checksum's name order differ.
type progGen struct {
	data    []byte
	b       strings.Builder
	arrays  []genArray
	scalars []string
	nextVar int
	stmts   int // statements left in the budget
}

type genArray struct {
	name string
	size int
}

func (g *progGen) pick(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	v := int(g.data[0]) % n
	g.data = g.data[1:]
	return v
}

// genProgram returns the program text the choice bytes spell.
func genProgram(data []byte) string {
	g := &progGen{data: data, stmts: 24}
	pool := []string{"Q", "C", "M", "A"}
	n := 1 + g.pick(len(pool))
	g.b.WriteString("func gen() {\n  var ")
	for i := 0; i < n; i++ {
		a := genArray{name: pool[i], size: 1 + g.pick(12)}
		g.arrays = append(g.arrays, a)
		if i > 0 {
			g.b.WriteString(", ")
		}
		fmt.Fprintf(&g.b, "%s[%d]", a.name, a.size)
	}
	g.b.WriteString("\n")
	g.block(1, 0)
	g.b.WriteString("}\n")
	return g.b.String()
}

// randomProgram is genProgram over bytes drawn from a seeded source: the
// generated half of the checksum golden corpus.
func randomProgram(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	data := make([]byte, 256)
	r.Read(data)
	return genProgram(data)
}

func (g *progGen) indent(depth int) {
	for i := 0; i < depth; i++ {
		g.b.WriteString("  ")
	}
}

// block writes statements until the stream says stop (or the budget runs
// out), always at least one.
func (g *progGen) block(depth, loops int) {
	for {
		g.stmt(depth, loops)
		if g.stmts <= 0 || g.pick(4) == 0 {
			return
		}
	}
}

func (g *progGen) stmt(depth, loops int) {
	g.stmts--
	g.indent(depth)
	kind := g.pick(6)
	if depth >= 4 && kind >= 3 {
		kind = 0
	}
	switch kind {
	case 0, 1: // array store
		a := g.arrays[g.pick(len(g.arrays))]
		fmt.Fprintf(&g.b, "%s[%s] = %s\n", a.name, g.index(a), g.expr(2))
	case 2: // scalar assignment
		val := g.expr(2)
		name := g.scalarTarget()
		fmt.Fprintf(&g.b, "%s = %s\n", name, val)
	case 3, 4: // loop
		if loops >= 3 {
			fmt.Fprintf(&g.b, "%s = %s\n", g.scalarTarget(), g.expr(1))
			return
		}
		kw := "for"
		if kind == 4 {
			kw = "parfor"
		}
		lo, hi := g.pick(3), g.bound()
		v := fmt.Sprintf("i%d", g.nextVar)
		g.nextVar++
		fmt.Fprintf(&g.b, "%s %s = %d .. %s {\n", kw, v, lo, hi)
		g.scalars = append(g.scalars, v)
		g.block(depth+1, loops+1)
		g.dropScalar(v)
		g.indent(depth)
		g.b.WriteString("}\n")
	case 5: // conditional
		fmt.Fprintf(&g.b, "if %s {\n", g.expr(2))
		g.block(depth+1, loops)
		g.indent(depth)
		if g.pick(2) == 1 {
			g.b.WriteString("} else {\n")
			g.block(depth+1, loops)
			g.indent(depth)
		}
		g.b.WriteString("}\n")
	}
}

// scalarTarget picks an existing scalar or names a new one. Induction
// variables are never assignment targets (that could unbound their loop).
func (g *progGen) scalarTarget() string {
	var plain []string
	for _, s := range g.scalars {
		if s[0] == 's' {
			plain = append(plain, s)
		}
	}
	if k := g.pick(len(plain) + 1); k < len(plain) {
		return plain[k]
	}
	name := fmt.Sprintf("s%d", g.nextVar)
	g.nextVar++
	g.scalars = append(g.scalars, name)
	return name
}

func (g *progGen) dropScalar(name string) {
	for i, s := range g.scalars {
		if s == name {
			g.scalars = append(g.scalars[:i], g.scalars[i+1:]...)
			return
		}
	}
}

// bound writes a loop's upper bound: small, so nests stay cheap.
func (g *progGen) bound() string {
	if len(g.scalars) > 0 && g.pick(3) == 0 {
		return fmt.Sprintf("%s %% 6", g.scalars[g.pick(len(g.scalars))])
	}
	return fmt.Sprint(g.pick(7))
}

// index writes a subscript for a: usually reduced into range, sometimes raw
// so the access can fault.
func (g *progGen) index(a genArray) string {
	e := g.expr(1)
	if g.pick(12) == 0 {
		return e
	}
	return fmt.Sprintf("(%s %% %d + %d) %% %d", e, a.size, a.size, a.size)
}

var genOps = []string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="}

func (g *progGen) expr(depth int) string {
	kind := g.pick(5)
	if depth == 0 && kind >= 3 {
		kind = 0
	}
	switch kind {
	case 1:
		if len(g.scalars) > 0 {
			return g.scalars[g.pick(len(g.scalars))]
		}
	case 2:
		return fmt.Sprintf("(0 - %d)", g.pick(9))
	case 3:
		a := g.arrays[g.pick(len(g.arrays))]
		return fmt.Sprintf("%s[%s]", a.name, g.index(a))
	case 4:
		l := g.expr(depth - 1)
		op := genOps[g.pick(len(genOps))]
		return fmt.Sprintf("(%s %s %s)", l, op, g.expr(depth-1))
	}
	return fmt.Sprint(g.pick(14))
}
