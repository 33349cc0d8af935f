package mtcg_test

import (
	"errors"
	"testing"

	"crossinv/internal/analysis/depend"
	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
	"crossinv/internal/lang/parser"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/transform/mtcg"
	"crossinv/internal/transform/partition"
	"crossinv/internal/transform/slice"
)

func transform(t *testing.T, src string, regionIdx int) (*ir.Program, *mtcg.Parallelized, error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := ir.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	par, err := mtcg.Transform(p, depend.Analyze(p), p.Loops[regionIdx], slice.Options{})
	return p, par, err
}

const cgSrc = `
func cg() {
  var S[20], E[20], C[60], IDX[200]
  parfor z = 0 .. 200 { IDX[z] = z * 13 % 60 }
  for i = 0 .. 20 {
    start = i * 10 % 191
    end = start + 9
    parfor j = start .. end {
      C[IDX[j]] = C[IDX[j]] * 3 + j
    }
  }
}
`

func TestTransformCG(t *testing.T) {
	_, par, err := transform(t, cgSrc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Part.Inners) != 1 {
		t.Fatalf("inners = %d", len(par.Part.Inners))
	}
	inner := par.Part.Inners[0]
	ca := par.Slices[inner]
	if ca == nil {
		t.Fatal("no computeAddr slice generated")
	}
	// Live-ins of the inner body: none beyond the induction variable (the
	// bounds feed the loop header, not the body).
	if len(par.LiveIns[inner]) != 0 {
		t.Fatalf("liveIns = %v, want none", par.LiveIns[inner])
	}
}

func TestLiveInsForwarded(t *testing.T) {
	_, par, err := transform(t, `
	func f() {
		var A[100]
		for t = 0 .. 5 {
			bias = t * 7
			parfor i = 0 .. 100 { A[i] = i + bias }
		}
	}`, 0)
	if err != nil {
		t.Fatal(err)
	}
	inner := par.Part.Inners[0]
	if len(par.LiveIns[inner]) != 1 || par.LiveIns[inner][0] != "bias" {
		t.Fatalf("liveIns = %v, want [bias]", par.LiveIns[inner])
	}
}

func TestRunMatchesSequentialWithLiveIns(t *testing.T) {
	src := `
	func f() {
		var A[100]
		for t = 0 .. 8 {
			bias = t * 7 % 13
			parfor i = 0 .. 100 { A[i] = A[i] * 3 + i + bias }
		}
	}`
	prog, _ := parser.Parse(src)
	p, _ := ir.Lower(prog)
	seq, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Checksum()

	par, err := mtcg.Transform(p, depend.Analyze(p), p.Loops[0], slice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(p)
	if _, err := par.Run(env, domore.Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if got := env.Checksum(); got != want {
		t.Fatalf("checksum %x != sequential %x", got, want)
	}
}

func TestTailSequentialCodeRuns(t *testing.T) {
	// Sequential code after the last inner loop must execute once per
	// outer iteration, including the final one (Finish's job).
	src := `
	func f() {
		var A[50], T[10]
		for t = 0 .. 10 {
			parfor i = 0 .. 50 { A[i] = A[i] + i + t }
			T[t] = t * 2
		}
	}`
	prog, _ := parser.Parse(src)
	p, _ := ir.Lower(prog)
	seq, _ := interp.Run(p)
	want := seq.Checksum()

	par, err := mtcg.Transform(p, depend.Analyze(p), p.Loops[0], slice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(p)
	if _, err := par.Run(env, domore.Options{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if got := env.Checksum(); got != want {
		t.Fatalf("checksum %x != sequential %x (tail statements lost?)", got, want)
	}
	for i := int64(0); i < 10; i++ {
		if env.Array("T")[i] != 2*i {
			t.Fatalf("T[%d] = %d, want %d", i, env.Array("T")[i], 2*i)
		}
	}
}

func TestTransformRejectsWorkerToSchedulerFlow(t *testing.T) {
	_, _, err := transform(t, `
	func f() {
		var A[10], B[10]
		for i = 0 .. 10 {
			x = B[0]
			parfor j = 0 .. 10 { B[j] = j + x }
		}
	}`, 0)
	if !errors.Is(err, partition.ErrEmptyWorker) {
		t.Fatalf("err = %v, want ErrEmptyWorker", err)
	}
}

func TestTransformRejectsHeavySlice(t *testing.T) {
	prog, _ := parser.Parse(`
	func f() {
		var A[1000], IDX[1000]
		for t = 0 .. 4 {
			parfor i = 0 .. 100 { A[IDX[i] * 7 % 1000] = 1 }
		}
	}`)
	p, _ := ir.Lower(prog)
	_, err := mtcg.Transform(p, depend.Analyze(p), p.Loops[0], slice.Options{MaxWeight: 0.4})
	if !errors.Is(err, slice.ErrTooHeavy) {
		t.Fatalf("err = %v, want ErrTooHeavy", err)
	}
}

func TestOOBInRegionSurfacesAsError(t *testing.T) {
	src := `
	func f() {
		var A[5]
		for t = 0 .. 3 {
			parfor i = 0 .. 10 { A[i] = i }
		}
	}`
	prog, _ := parser.Parse(src)
	p, _ := ir.Lower(prog)
	par, err := mtcg.Transform(p, depend.Analyze(p), p.Loops[0], slice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(p)
	if _, err := par.Run(env, domore.Options{Workers: 2}); err == nil {
		t.Fatal("out-of-bounds store must surface as an error")
	}
}
