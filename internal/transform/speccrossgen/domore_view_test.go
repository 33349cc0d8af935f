package speccrossgen_test

import (
	"reflect"
	"testing"

	"crossinv/internal/analysis/depend"
	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/transform/mtcg"
	"crossinv/internal/transform/slice"
	"crossinv/internal/transform/speccrossgen"
)

// view builds the DOMORE view of the region at outer over env, with the
// slices mtcg.Transform generates for it.
func view(t *testing.T, p *ir.Program, dep *depend.Result, outer *ir.Loop, env *interp.Env, workers int) *speccrossgen.DomoreView {
	t.Helper()
	par, err := mtcg.Transform(p, dep, outer, slice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := speccrossgen.New(p, dep, outer, env, workers)
	if err != nil {
		t.Fatal(err)
	}
	v, err := speccrossgen.NewDomoreView(r, par.Slices)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func stencilView(t *testing.T, workers int) (*speccrossgen.DomoreView, *interp.Env) {
	t.Helper()
	p, dep := compile(t, stencilSrc)
	env := interp.NewEnv(p)
	return view(t, p, dep, p.Loops[0], env, workers), env
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

// TestDomoreViewComputeAddr: the slice's address set for L1's iteration i
// (A[i] = B[i] + B[i+1]) is exactly {B[i], B[i+1], A[i]}, in body order.
func TestDomoreViewComputeAddr(t *testing.T) {
	v, _ := stencilView(t, 1)
	p := v.Prog
	got := v.ComputeAddr(0, 5, nil)
	want := []uint64{p.Addr("B", 5), p.Addr("B", 6), p.Addr("A", 5)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ComputeAddr = %v, want %v", got, want)
	}
	// Appending to a caller-owned prefix must leave the prefix intact, and
	// dedup only the iteration's own addresses.
	buf := []uint64{p.Addr("A", 5)}
	got = v.ComputeAddr(0, 5, buf)
	if !reflect.DeepEqual(got, append([]uint64{p.Addr("A", 5)}, want...)) {
		t.Fatalf("prefix not preserved: %v", got)
	}
	// Invocation 3 is L2 at t = 1, whose iteration 2 is j = 3: it touches
	// A[2] and B[3].
	if got, want := v.ComputeAddr(3, 2, nil), []uint64{p.Addr("A", 2), p.Addr("B", 3)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ComputeAddr(3, 2) = %v, want %v", got, want)
	}
}

// TestDomoreViewReplayIsSideEffectFree: ComputeAddr must not mutate live
// program state (§3.3.4's requirement on the computeAddr slice): neither
// memory nor the live environment's scalars, nor the epochs' frames it
// installs, which a second pass would then read back differently.
func TestDomoreViewReplayIsSideEffectFree(t *testing.T) {
	p, dep := compile(t, stencilSrc)
	env := interp.NewEnv(p)
	for i := range env.Mem {
		env.Mem[i] = int64(i%7 - 3)
	}
	for i := range env.Vars {
		env.Vars[i] = int64(100 + i)
	}
	mem := append([]int64(nil), env.Mem...)
	vars := append([]int64(nil), env.Vars...)
	v := view(t, p, dep, p.Loops[0], env, 1)
	pass := func() [][]uint64 {
		var out [][]uint64
		for inv := 0; inv < v.Invocations(); inv++ {
			for iter := 0; iter < v.Iterations(inv); iter++ {
				out = append(out, v.ComputeAddr(inv, iter, nil))
			}
		}
		return out
	}
	first := pass()
	if !reflect.DeepEqual(env.Mem, mem) || !reflect.DeepEqual(env.Vars, vars) {
		t.Fatal("ComputeAddr mutated the live environment")
	}
	if second := pass(); !reflect.DeepEqual(first, second) {
		t.Fatal("a second pass computed different addresses: an epoch frame changed")
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
	v := view(t, p, dep, outer, env, 2)
	if stats := domore.Run(v, domore.Options{Workers: 2}); stats.Dependences == 0 {
		t.Fatal("IDX maps distinct j to shared C cells; dependences expected")
	}
	if got := env.Checksum(); got != want {
		t.Fatalf("checksum %x != sequential %x", got, want)
	}
}
