package mtcg_test

import (
	"reflect"
	"testing"

	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
	"crossinv/internal/runtime/domore"
)

// bindCG binds the CG region on a fresh environment that has run the code
// before the region (IDX is filled), with two worker environments.
func bindCG(t *testing.T) (*ir.Program, domore.Workload) {
	t.Helper()
	p, par, err := transform(t, cgSrc, 1)
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(p)
	if err := env.Exec(p.Body[:1]); err != nil {
		t.Fatal(err)
	}
	w, err := par.Bind(env, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p, w
}

// TestSteadyStateAllocs: once bound, the scheduler's per-invocation and
// per-iteration calls and the worker's per-iteration call allocate nothing.
func TestSteadyStateAllocs(t *testing.T) {
	_, w := bindCG(t)
	w.Sequential(0)
	buf := make([]uint64, 0, 16) // the engine's reused scratch
	for name, f := range map[string]func(){
		"Sequential":  func() { w.Sequential(1) },
		"ComputeAddr": func() { buf = w.ComputeAddr(0, 3, buf[:0]) },
		"Execute":     func() { w.Execute(0, 3, 1) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.0f objects per call, want 0", name, n)
		}
	}
}

// addrTrace runs the scheduler side of every invocation and returns each
// iteration's address sequence in order.
func addrTrace(t *testing.T) [][]uint64 {
	_, w := bindCG(t)
	var out [][]uint64
	for inv := 0; inv < w.Invocations(); inv++ {
		w.Sequential(inv)
		for iter := 0; iter < w.Iterations(inv); iter++ {
			out = append(out, append([]uint64(nil), w.ComputeAddr(inv, iter, nil)...))
		}
	}
	return out
}

// TestComputeAddrOrderIsDeterministic: the order in which one iteration's
// addresses reach shadow memory decides the order of the sync conditions
// forwarded for it, so it must be the slice's body order — the same on
// every call and on every run. (It used to follow Go's randomized map
// iteration over the slice's address table.)
func TestComputeAddrOrderIsDeterministic(t *testing.T) {
	p, w := bindCG(t)
	w.Sequential(0)
	first := append([]uint64(nil), w.ComputeAddr(0, 3, nil)...)
	// start = 0, j = 3: the body reads IDX[3] before it touches C[IDX[3]].
	if want := []uint64{p.Addr("IDX", 3), p.Addr("C", 3*13%60)}; !reflect.DeepEqual(first, want) {
		t.Fatalf("ComputeAddr = %v, want body order %v", first, want)
	}
	for i := 0; i < 64; i++ {
		if got := w.ComputeAddr(0, 3, nil); !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d returned %v, first call %v", i, got, first)
		}
	}
	a, b := addrTrace(t), addrTrace(t)
	if len(a) != 20*9 {
		t.Fatalf("traced %d iterations, want 180", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of the same region computed different address sequences")
	}
}
