package speccrossgen_test

import (
	"errors"
	"slices"
	"testing"

	"crossinv/internal/analysis/depend"
	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
	"crossinv/internal/lang/parser"
	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/transform/speccrossgen"
)

func compile(t *testing.T, src string) (*ir.Program, *depend.Result) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := ir.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p, depend.Analyze(p)
}

const stencilSrc = `
func f() {
  var A[40], B[41]
  for t = 0 .. 6 {
    parfor i = 0 .. 40 { A[i] = B[i] + B[i+1] }
    parfor j = 1 .. 41 { B[j] = A[j-1] * 2 + t }
  }
}
`

func TestDetect(t *testing.T) {
	p, _ := compile(t, stencilSrc)
	regions := speccrossgen.Detect(p)
	if len(regions) != 1 || regions[0].Var != "t" {
		t.Fatalf("regions = %v", regions)
	}
}

func TestDetectIgnoresLoopsWithoutParfor(t *testing.T) {
	p, _ := compile(t, `func f() {
		var A[4]
		for i = 0 .. 4 { A[i] = i }
	}`)
	if got := speccrossgen.Detect(p); len(got) != 0 {
		t.Fatalf("regions = %d, want 0", len(got))
	}
}

func TestRegionStructure(t *testing.T) {
	p, dep := compile(t, stencilSrc)
	env := interp.NewEnv(p)
	r, err := speccrossgen.New(p, dep, p.Loops[0], env, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epochs() != 12 {
		t.Fatalf("epochs = %d, want 12 (6 timesteps × 2 loops)", r.Epochs())
	}
	if r.Tasks(0) != 40 || r.Tasks(1) != 40 {
		t.Fatalf("tasks = %d/%d", r.Tasks(0), r.Tasks(1))
	}
	if r.EpochLabel(0) == r.EpochLabel(1) {
		t.Fatal("the two inner loops must carry distinct labels")
	}
	if r.EpochLabel(0) != r.EpochLabel(2) {
		t.Fatal("invocations of the same loop must share a label")
	}
}

// TestCellImageRestore: a region's cell image is the program's flat memory.
// A capture through LoadCells, a torn speculative write of every array
// cell through the environment and through a fork of it, and a StoreCells
// of the capture restore every array exactly.
func TestCellImageRestore(t *testing.T) {
	p, dep := compile(t, `func f() {
		var A[3], B[2]
		for t = 0 .. 2 {
			parfor i = 0 .. 3 { A[i] = A[i] + B[1] }
		}
	}`)
	env := interp.NewEnv(p)
	copy(env.Array("A"), []int64{1, 2, 0})
	copy(env.Array("B"), []int64{0, 3})
	want := env.Checksum()
	r, err := speccrossgen.New(p, dep, p.Loops[0], env, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.StateLen() != len(env.Mem) {
		t.Fatalf("StateLen %d, want the %d cells of Mem", r.StateLen(), len(env.Mem))
	}
	img := make([]int64, r.StateLen())
	r.LoadCells(0, img)
	for i := range env.Mem {
		env.Mem[i] = -1
	}
	env.Fork().Array("B")[0] = 99
	if slices.Contains(img, -1) {
		t.Fatal("the captured image aliases live memory")
	}
	r.StoreCells(0, img)
	if a, b := env.Array("A"), env.Array("B"); a[0] != 1 || a[1] != 2 || a[2] != 0 || b[0] != 0 || b[1] != 3 {
		t.Fatalf("restore not exact: A=%v B=%v", a, b)
	}
	if env.Checksum() != want {
		t.Fatal("checksum changed across capture and restore")
	}
	if lo, hi := r.CellMap()(4); lo != 4 || hi != 5 {
		t.Fatalf("flat address 4 maps to cells [%d, %d), want [4, 5)", lo, hi)
	}
}

func TestRejectsSequentialStores(t *testing.T) {
	p, dep := compile(t, `func f() {
		var A[10], S[10]
		for t = 0 .. 3 {
			S[t] = t
			parfor i = 0 .. 10 { A[i] = A[i] + S[t] }
		}
	}`)
	_, err := speccrossgen.New(p, dep, p.Loops[0], interp.NewEnv(p), 1)
	if !errors.Is(err, speccrossgen.ErrSequentialStores) {
		t.Fatalf("err = %v, want ErrSequentialStores", err)
	}
}

func TestRejectsSequentialReadsOfParallelWrites(t *testing.T) {
	p, dep := compile(t, `func f() {
		var A[10]
		for t = 0 .. 3 {
			x = A[0]
			parfor i = 0 .. 10 { A[i] = A[i] + x }
		}
	}`)
	_, err := speccrossgen.New(p, dep, p.Loops[0], interp.NewEnv(p), 1)
	if !errors.Is(err, speccrossgen.ErrSequentialReadsParallel) {
		t.Fatalf("err = %v, want ErrSequentialReadsParallel", err)
	}
}

func TestBarrierAndSpeculativeMatchSequential(t *testing.T) {
	p, _ := compile(t, stencilSrc)
	seq, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Checksum()

	for _, spec := range []bool{false, true} {
		p2, dep2 := compile(t, stencilSrc)
		env := interp.NewEnv(p2)
		r, err := speccrossgen.New(p2, dep2, p2.Loops[0], env, 3)
		if err != nil {
			t.Fatal(err)
		}
		if spec {
			cfg := speccross.Config{Workers: 3, CheckpointEvery: 4}
			if raceflag.Enabled {
				// Unbounded speculation over the stencil's conflicts races by
				// design until the checker rolls it back (§4.2.1); under the
				// detector, bound it by the distance profiled on a scratch
				// region (profiling executes the tasks).
				scratch, err := speccrossgen.New(p2, dep2, p2.Loops[0], interp.NewEnv(p2), 1)
				if err != nil {
					t.Fatal(err)
				}
				prof := scratch.Profile(signature.Range)
				cfg.SpecDistance, _ = prof.Recommended(cfg.Workers)
			}
			speccross.RunParallel(r, cfg)
		} else {
			speccross.RunBarriers(r, 3)
		}
		if got := env.Checksum(); got != want {
			t.Fatalf("spec=%v checksum %x != sequential %x", spec, got, want)
		}
	}
}

func TestProfileDetectsStencilDistance(t *testing.T) {
	p, dep := compile(t, stencilSrc)
	env := interp.NewEnv(p)
	r, err := speccrossgen.New(p, dep, p.Loops[0], env, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Profile(signature.Exact)
	if res.MinDistance == speccross.NoConflict {
		t.Fatal("the stencil's cross-invocation dependences must be observed")
	}
	// L2's j reads A[j-1] written by L1's iteration j-1: distance is about
	// one epoch's worth of tasks.
	if res.MinDistance < 30 || res.MinDistance > 50 {
		t.Fatalf("MinDistance = %d, want ≈40", res.MinDistance)
	}
	if len(res.PerLoop) == 0 {
		t.Fatal("per-loop distances missing")
	}
}
