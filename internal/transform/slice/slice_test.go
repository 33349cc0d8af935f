package slice_test

import (
	"errors"
	"testing"

	"crossinv/internal/analysis/depend"
	"crossinv/internal/ir"
	"crossinv/internal/lang/parser"
	"crossinv/internal/transform/slice"
)

func gen(t *testing.T, src string, loopIdx int, workerWrites map[string]bool, opts slice.Options) (*ir.Program, *slice.ComputeAddr, error) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := ir.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	ca, err := slice.Generate(p, depend.Analyze(p), p.Loops[loopIdx], workerWrites, opts)
	return p, ca, err
}

func TestCGSlice(t *testing.T) {
	// The Fig 3.1 inner loop: the slice must contain the IDX load and the
	// address arithmetic, but not the update of C.
	p, ca, err := gen(t, `func f() {
		var C[100], IDX[100]
		for i = 0 .. 10 {
			parfor j = 0 .. 100 {
				C[IDX[j]] = C[IDX[j]] * 3 + j
			}
		}
	}`, 1, map[string]bool{"C": true}, slice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ca.Instrs {
		if in.Op == ir.Store {
			t.Fatalf("slice contains store %v", in)
		}
		if in.Op == ir.Load && in.Array == "C" {
			t.Fatalf("slice loads worker-written array C")
		}
	}
	// Both the load and the store of C must have tracked address registers.
	tracked := 0
	for _, ta := range ca.Addrs {
		if in := p.Instrs[ta.Instr]; (in.Op == ir.Load || in.Op == ir.Store) && in.Array == "C" {
			tracked++
		}
	}
	if tracked < 2 {
		t.Fatalf("tracked C accesses = %d, want >= 2", tracked)
	}
	if ca.Weight <= 0 || ca.Weight > 0.9 {
		t.Fatalf("weight = %.2f", ca.Weight)
	}
}

func TestSliceRejectsWorkerStateReads(t *testing.T) {
	// Fig 4.1: the index array C is itself updated by workers; computeAddr
	// cannot read it ahead of execution.
	_, _, err := gen(t, `func f() {
		var A[100], B[100], C[100]
		for t = 0 .. 4 {
			parfor i = 0 .. 100 {
				A[i] = B[C[i]]
				B[C[i]] = i
			}
		}
	}`, 1, map[string]bool{"A": true, "B": true, "C": true}, slice.Options{})
	if !errors.Is(err, slice.ErrWorkerState) {
		t.Fatalf("err = %v, want ErrWorkerState", err)
	}
}

func TestPerformanceGuard(t *testing.T) {
	// Body is almost entirely address computation: with a strict guard the
	// transformation must refuse (the scheduler would be the bottleneck).
	_, _, err := gen(t, `func f() {
		var A[1000], IDX[1000]
		for t = 0 .. 4 {
			parfor i = 0 .. 100 {
				A[IDX[i] * 7 % 1000] = 1
			}
		}
	}`, 1, nil, slice.Options{MaxWeight: 0.5})
	if !errors.Is(err, slice.ErrTooHeavy) {
		t.Fatalf("err = %v, want ErrTooHeavy", err)
	}
}

func TestNestedAccessRejected(t *testing.T) {
	_, _, err := gen(t, `func f() {
		var A[100]
		for t = 0 .. 4 {
			parfor i = 0 .. 10 {
				for k = 0 .. 10 { A[i*10+k] = k }
			}
		}
	}`, 1, nil, slice.Options{})
	if err == nil {
		t.Fatal("nested-loop accesses must be rejected")
	}
}

func TestAffineSliceIsTiny(t *testing.T) {
	_, ca, err := gen(t, `func f() {
		var A[101], B[101]
		for t = 0 .. 4 {
			parfor i = 0 .. 100 {
				A[i] = B[i] * 3 + B[i+1] * 5 + t
			}
		}
	}`, 1, map[string]bool{"A": true}, slice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Address computations are i, i, i+1: the slice should be a small
	// fraction of the body (the arithmetic with B values must be excluded).
	if ca.Weight > 0.5 {
		t.Fatalf("slice weight %.2f too heavy for an affine body", ca.Weight)
	}
}
