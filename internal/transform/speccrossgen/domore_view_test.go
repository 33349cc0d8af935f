package speccrossgen_test

import (
	"errors"
	"testing"

	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/transform/speccrossgen"
)

func stencilView(t *testing.T, workers int) (*speccrossgen.DomoreView, *interp.Env) {
	t.Helper()
	p, dep := compile(t, stencilSrc)
	env := interp.NewEnv(p)
	r, err := speccrossgen.New(p, dep, p.Loops[0], env, workers)
	if err != nil {
		t.Fatal(err)
	}
	v, err := speccrossgen.NewDomoreView(r)
	if err != nil {
		t.Fatal(err)
	}
	return v, env
}

func TestDomoreViewShape(t *testing.T) {
	v, _ := stencilView(t, 2)
	if v.Invocations() != v.Epochs() || v.Invocations() != 12 {
		t.Fatalf("invocations = %d, epochs = %d, want 12", v.Invocations(), v.Epochs())
	}
	if v.Iterations(0) != v.Tasks(0) {
		t.Fatalf("iterations %d != tasks %d", v.Iterations(0), v.Tasks(0))
	}
}

// TestDomoreViewComputeAddr: the replayed address set of L1's iteration i
// (A[i] = B[i] + B[i+1]) is exactly {A[i], B[i], B[i+1]}.
func TestDomoreViewComputeAddr(t *testing.T) {
	v, _ := stencilView(t, 1)
	p := v.Prog
	got := v.ComputeAddr(0, 5, nil)
	want := map[uint64]bool{
		p.Addr("A", 5): true,
		p.Addr("B", 5): true,
		p.Addr("B", 6): true,
	}
	if len(got) != len(want) {
		t.Fatalf("ComputeAddr = %v, want 3 distinct addresses", got)
	}
	for _, a := range got {
		if !want[a] {
			t.Fatalf("unexpected address %d in %v", a, got)
		}
	}
	// Appending to a caller-owned prefix must leave the prefix intact.
	buf := []uint64{99}
	got = v.ComputeAddr(0, 5, buf)
	if got[0] != 99 || len(got) != 4 {
		t.Fatalf("prefix not preserved: %v", got)
	}
}

// TestDomoreViewReplayIsSideEffectFree: ComputeAddr must not mutate live
// program state (§3.3.4's requirement on the computeAddr slice).
func TestDomoreViewReplayIsSideEffectFree(t *testing.T) {
	v, env := stencilView(t, 1)
	for iter := 0; iter < v.Iterations(0); iter++ {
		v.ComputeAddr(0, iter, nil)
	}
	for _, a := range env.Array("A") {
		if a != 0 {
			t.Fatal("ComputeAddr mutated the live environment")
		}
	}
}

// TestDomoreViewRunsUnderDomore: the stencil region executed by the real
// DOMORE engine through the view reproduces the sequential result.
func TestDomoreViewRunsUnderDomore(t *testing.T) {
	p, _ := compile(t, stencilSrc)
	seq, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Checksum()

	v, env := stencilView(t, 3)
	stats := domore.Run(v, domore.Options{Workers: 3})
	if got := env.Checksum(); got != want {
		t.Fatalf("domore-view checksum %x != sequential %x", got, want)
	}
	// The stencil's cross-invocation dependences must surface as dynamic
	// synchronization conditions.
	if stats.SyncConditions == 0 {
		t.Fatal("expected dynamic synchronization conditions")
	}
}

// TestDomoreViewSatisfiesAdaptive: the view is a complete adaptive.Workload
// (compile-time assertion plus a windowed run through the controller).
func TestDomoreViewSatisfiesAdaptive(t *testing.T) {
	p, _ := compile(t, stencilSrc)
	seq, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Checksum()

	v, env := stencilView(t, 3)
	var w adaptive.Workload = v
	stats := adaptive.Run(w, adaptive.Config{Workers: 3, Window: 4})
	if got := env.Checksum(); got != want {
		t.Fatalf("adaptive checksum %x != sequential %x", got, want)
	}
	if stats.Windows != 3 {
		t.Fatalf("windows = %d, want 3", stats.Windows)
	}
}

// TestDomoreViewRejectsValueDependentAddrs: when a parallel loop writes the
// index array another access reads its address from, the scheduler cannot
// precompute address sets and the view must be refused.
func TestDomoreViewRejectsValueDependentAddrs(t *testing.T) {
	p, dep := compile(t, `func f() {
		var IDX[8], C[16]
		for t = 0 .. 3 {
			parfor i = 0 .. 8 { IDX[i] = IDX[i] + 1 }
			parfor j = 0 .. 8 { C[IDX[j]] = C[IDX[j]] + j }
		}
	}`)
	env := interp.NewEnv(p)
	r, err := speccrossgen.New(p, dep, p.Loops[0], env, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := speccrossgen.NewDomoreView(r); !errors.Is(err, speccrossgen.ErrAddrDependsOnParallel) {
		t.Fatalf("err = %v, want ErrAddrDependsOnParallel", err)
	}
}

// TestDomoreViewAllowsReadOnlyIndexArrays: indirection through an index
// array no parallel loop writes (the CG pattern) is fine.
func TestDomoreViewAllowsReadOnlyIndexArrays(t *testing.T) {
	// Each epoch's 8 consecutive IDX entries are a permutation of C's 8
	// cells (5 is coprime to 8), so iterations within one epoch stay
	// independent (DOALL) while the stride-5 epoch windows overlap by 3 —
	// genuine cross-invocation dependences through a read-only index array.
	p, dep := compile(t, `func f() {
		var IDX[40], C[8]
		parfor z = 0 .. 40 { IDX[z] = z * 5 % 8 }
		for t = 0 .. 4 {
			parfor j = 0 .. 8 { C[IDX[t*5+j]] = C[IDX[t*5+j]] * 3 + j + 1 }
		}
	}`)
	seq, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Checksum()

	env := interp.NewEnv(p)
	// Loops[0] is the init parfor; the region is the loop over t. Execute
	// the init first so the region sees the populated IDX.
	var outer = p.Loops[0]
	for _, l := range p.Loops {
		if !l.Parallel {
			outer = l
		}
	}
	if err := env.Exec([]ir.Node{p.Loops[0]}); err != nil {
		t.Fatal(err)
	}
	r, err := speccrossgen.New(p, dep, outer, env, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := speccrossgen.NewDomoreView(r)
	if err != nil {
		t.Fatal(err)
	}
	if stats := domore.Run(v, domore.Options{Workers: 2}); stats.Dependences == 0 {
		t.Fatal("IDX maps distinct j to shared C cells; dependences expected")
	}
	if got := env.Checksum(); got != want {
		t.Fatalf("checksum %x != sequential %x", got, want)
	}
}
