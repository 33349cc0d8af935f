package speccrossgen_test

import (
	"errors"
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
			r.RunSpeculative(cfg)
		} else {
			r.RunBarriers(3)
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

func TestTraceExportsInstructionCosts(t *testing.T) {
	p, dep := compile(t, stencilSrc)
	env := interp.NewEnv(p)
	r, err := speccrossgen.New(p, dep, p.Loops[0], env, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := r.Trace(10)
	if len(tr.Epochs) != r.Epochs() {
		t.Fatalf("trace epochs = %d, want %d", len(tr.Epochs), r.Epochs())
	}
	if tr.Tasks() != 12*40 {
		t.Fatalf("trace tasks = %d", tr.Tasks())
	}
	task := tr.Epochs[0].Tasks[0]
	if task.Cost <= 0 {
		t.Fatal("task cost must reflect interpreted instructions")
	}
	// L1's body reads B[i] and B[i+1] and writes A[i].
	if len(task.Reads) != 2 || len(task.Writes) != 1 {
		t.Fatalf("task accesses = %d reads / %d writes, want 2/1", len(task.Reads), len(task.Writes))
	}
	// The replay must not have mutated live program state.
	for _, v := range env.Array("A") {
		if v != 0 {
			t.Fatal("trace replay mutated the live environment")
		}
	}
}
