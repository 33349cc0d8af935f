package verify_test

import (
	"strings"
	"testing"

	"crossinv/internal/analysis/depend"
	"crossinv/internal/analysis/verify"
	"crossinv/internal/diag"
	"crossinv/internal/ir"
	"crossinv/internal/lang/parser"
	"crossinv/internal/lang/token"
	"crossinv/internal/transform/advisor"
	"crossinv/internal/transform/mtcg"
	"crossinv/internal/transform/slice"
)

// cgSrc is the Fig 3.1 shape: inner bounds and addresses come from arrays,
// the worker updates C through an index array.
const cgSrc = `func cg() {
	var S[40], C[120], IDX[400]
	parfor z = 0 .. 400 {
		IDX[z] = z * 17 % 120
	}
	for i = 0 .. 40 {
		start = S[i] % 391
		end = start + 9
		parfor j = start .. end {
			C[IDX[j]] = C[IDX[j]] * 3 + j + 1
		}
	}
}`

// stencilSrc is the Fig 1.3 shape: two parfors per timestep, and the second
// one reads the induction scalar t — a live-in MTCG must forward.
const stencilSrc = `func stencil() {
	var A[256], B[257]
	for t = 0 .. 40 {
		parfor i = 0 .. 256 {
			A[i] = B[i] * 3 + B[i+1]
		}
		parfor j = 1 .. 257 {
			B[j] = A[j-1] % 1009 + t
		}
	}
}`

func compile(t *testing.T, src string) (*ir.Program, *depend.Result) {
	t.Helper()
	astProg, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := ir.Lower(astProg)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p, depend.Analyze(p)
}

func loopByVar(t *testing.T, p *ir.Program, name string) *ir.Loop {
	t.Helper()
	for _, l := range p.Loops {
		if l.Var == name {
			return l
		}
	}
	t.Fatalf("no loop with induction variable %q", name)
	return nil
}

func transform(t *testing.T, src, outerVar string) (*ir.Program, *depend.Result, *mtcg.Parallelized) {
	t.Helper()
	p, dep := compile(t, src)
	outer := loopByVar(t, p, outerVar)
	par, err := mtcg.Transform(p, dep, outer, slice.Options{})
	if err != nil {
		t.Fatalf("mtcg.Transform: %v", err)
	}
	return p, dep, par
}

// wantFlagged asserts that the list contains an error of the corruption's
// check at the corruption's source position.
func wantFlagged(t *testing.T, list diag.List, c verify.Corruption) {
	t.Helper()
	for _, d := range list {
		if d.Severity == diag.Error && d.Check == c.Check && d.Pos == c.Pos {
			return
		}
	}
	t.Errorf("corruption %q not flagged: want an error for check %q at %s, got:\n%s",
		c.Name, c.Check, c.Pos, list.Text())
}

func TestCleanPlansVerify(t *testing.T) {
	for _, tc := range []struct{ name, src, outer string }{
		{"cg", cgSrc, "i"},
		{"stencil", stencilSrc, "t"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, dep, par := transform(t, tc.src, tc.outer)
			outer := loopByVar(t, p, tc.outer)
			list := verify.Partition(par.Part)
			for _, inner := range par.Part.Inners {
				list = append(list, verify.Slice(p, par.Part, par.Slices[inner])...)
			}
			list = append(list, verify.MTCG(par)...)
			list = append(list, verify.Signatures(p, outer, verify.SignaturePlanFor(outer))...)
			if len(list) != 0 {
				t.Errorf("clean program produced diagnostics:\n%s", list.Text())
			}
			for _, l := range p.Loops {
				rec := advisor.Advise(p, dep, l)
				if out := verify.Advisor(p, dep, l, rec); len(out) != 0 {
					t.Errorf("advisor check flagged loop %q:\n%s", l.Var, out.Text())
				}
			}
		})
	}
}

func TestCorruptWidenScheduler(t *testing.T) {
	_, _, par := transform(t, cgSrc, "i")
	c, ok := verify.CorruptWidenScheduler(par.Part)
	if !ok {
		t.Fatal("no worker→worker hard edge to corrupt")
	}
	if c.Pos == (token.Pos{}) {
		t.Fatal("corruption has no source position")
	}
	wantFlagged(t, verify.Partition(par.Part), c)
}

func TestCorruptStoreIntoSlice(t *testing.T) {
	p, _, par := transform(t, cgSrc, "i")
	inner := par.Part.Inners[0]
	c, ok := verify.CorruptStoreIntoSlice(par.Slices[inner])
	if !ok {
		t.Fatal("no store in the inner body to corrupt with")
	}
	wantFlagged(t, verify.Slice(p, par.Part, par.Slices[inner]), c)
}

func TestCorruptDropAddr(t *testing.T) {
	p, _, par := transform(t, cgSrc, "i")
	inner := par.Part.Inners[0]
	c, ok := verify.CorruptDropAddr(p, par.Slices[inner])
	if !ok {
		t.Fatal("slice tracks no addresses")
	}
	wantFlagged(t, verify.Slice(p, par.Part, par.Slices[inner]), c)
}

func TestCorruptDropLiveIn(t *testing.T) {
	_, _, par := transform(t, stencilSrc, "t")
	c, ok := verify.CorruptDropLiveIn(par)
	if !ok {
		t.Fatal("no live-in to drop (expected t for the second parfor)")
	}
	if c.Pos == (token.Pos{}) {
		t.Fatal("corruption has no source position")
	}
	wantFlagged(t, verify.MTCG(par), c)
}

func TestCorruptDuplicateLiveIn(t *testing.T) {
	_, _, par := transform(t, stencilSrc, "t")
	c, ok := verify.CorruptDuplicateLiveIn(par)
	if !ok {
		t.Fatal("no live-in to duplicate")
	}
	wantFlagged(t, verify.MTCG(par), c)
}

func TestCorruptDropInstrumentation(t *testing.T) {
	p, _ := compile(t, stencilSrc)
	outer := loopByVar(t, p, "t")
	plan := verify.SignaturePlanFor(outer)
	c, ok := verify.CorruptDropInstrumentation(p, plan)
	if !ok {
		t.Fatal("instrumentation plan is empty")
	}
	wantFlagged(t, verify.Signatures(p, outer, plan), c)
}

func TestCleanProgramsHaveConsistentSlots(t *testing.T) {
	for _, src := range []string{cgSrc, stencilSrc, "func empty() { var A[1] }"} {
		p, _ := compile(t, src)
		if list := verify.Slots(p); len(list) != 0 {
			t.Errorf("freshly lowered program failed the slot check:\n%s", list.Text())
		}
	}
}

func TestCorruptSlots(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(*ir.Program) (verify.Corruption, bool)
	}{
		{"access", verify.CorruptSlotAccess},
		{"loop-var", verify.CorruptSlotLoopVar},
		{"table", verify.CorruptSlotTable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := compile(t, cgSrc)
			c, ok := tc.corrupt(p)
			if !ok {
				t.Fatal("nothing to corrupt")
			}
			wantFlagged(t, verify.Slots(p), c)
		})
	}
}

func TestCorruptDOALL(t *testing.T) {
	p, dep := compile(t, cgSrc)
	loop := loopByVar(t, p, "j") // carries a dependence through C[IDX[j]]
	rec, c := verify.CorruptDOALL(loop)
	wantFlagged(t, verify.Advisor(p, dep, loop, rec), c)
}

func TestAdvisorAcceptsTrueDOALL(t *testing.T) {
	p, dep := compile(t, stencilSrc)
	loop := loopByVar(t, p, "i") // A[i] = f(B): genuinely independent
	rec := advisor.Advise(p, dep, loop)
	if rec.Plan != advisor.DOALL {
		t.Fatalf("advisor says %v for an independent loop", rec.Plan)
	}
	if out := verify.Advisor(p, dep, loop, rec); len(out) != 0 {
		t.Errorf("true DOALL flagged:\n%s", out.Text())
	}
}

func TestSignaturesNestedParfor(t *testing.T) {
	p, _ := compile(t, `func f() {
		var A[100], B[100]
		for i = 0 .. 10 {
			parfor j = 0 .. 10 {
				parfor k = 0 .. 10 {
					A[k] = B[k] + j
				}
			}
		}
	}`)
	outer := loopByVar(t, p, "i")
	list := verify.Signatures(p, outer, verify.SignaturePlanFor(outer))
	found := false
	for _, d := range list {
		if d.Check == verify.CheckSignature && d.Severity == diag.Warning &&
			strings.Contains(d.Msg, "nested inside a task") {
			found = true
		}
	}
	if !found {
		t.Errorf("nested parfor not warned about:\n%s", list.Text())
	}
}

func TestTaintFixpoint(t *testing.T) {
	// r1 = load A[r0]; s = r1; r2 = read s; r3 = r2 + r0; store B[r0] = r3
	instrs := []*ir.Instr{
		{ID: 0, Op: ir.Const, Dst: 0, Imm: 1},
		{ID: 1, Op: ir.Load, Dst: 1, A: 0, Array: "A"},
		{ID: 2, Op: ir.WriteVar, A: 1, Var: "s"},
		{ID: 3, Op: ir.ReadVar, Dst: 2, Var: "s"},
		{ID: 4, Op: ir.Add, Dst: 3, A: 2, B: 0},
		{ID: 5, Op: ir.Store, A: 0, B: 3, Array: "B"},
	}
	tt := verify.TaintFromArrays(instrs, map[string]bool{"A": true})
	if !tt.Reg[1] || !tt.Var["s"] || !tt.Reg[2] || !tt.Reg[3] {
		t.Errorf("taint did not propagate load→var→read→add: %+v", tt)
	}
	if tt.Reg[0] {
		t.Error("constant register tainted")
	}
	if clean := verify.TaintFromArrays(instrs, map[string]bool{"C": true}); len(clean.Reg) != 0 {
		t.Errorf("taint from unrelated array: %+v", clean.Reg)
	}

	// Round trip across textual order: the write to s happens after the
	// read in program text but taints it through the fixpoint.
	loopy := []*ir.Instr{
		{ID: 0, Op: ir.ReadVar, Dst: 0, Var: "acc"},
		{ID: 1, Op: ir.Load, Dst: 1, A: 0, Array: "A"},
		{ID: 2, Op: ir.WriteVar, A: 1, Var: "acc"},
	}
	tl := verify.TaintFromArrays(loopy, map[string]bool{"A": true})
	if !tl.Reg[0] || !tl.Var["acc"] {
		t.Error("taint did not close the var round trip across iterations")
	}
}
