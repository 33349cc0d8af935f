package speccrossgen_test

import (
	"testing"

	"crossinv/internal/runtime/signature"
)

// TestTaskEntryAllocs: entering and running a task allocates nothing, with
// a signature attached (speculative execution) and without (barrier and
// DOMORE execution), and neither does the DOMORE view's slice evaluation.
// Per-task overhead is what decides whether
// cross-invocation parallelism pays (§4.2.1), so it is gated at zero.
func TestTaskEntryAllocs(t *testing.T) {
	v, _ := stencilView(t, 2)
	sig := signature.New(signature.Range)
	buf := make([]uint64, 0, 16)
	for name, f := range map[string]func(){
		"Run with signature":    func() { v.Run(1, 3, 1, sig) },
		"Run without signature": func() { v.Run(1, 3, 1, nil) },
		"Execute":               func() { v.Execute(0, 3, 0) },
		"ComputeAddr":           func() { buf = v.ComputeAddr(1, 3, buf[:0]) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.0f objects per call, want 0", name, n)
		}
	}
}

// TestRunDetachesSignature: a task run without a signature after one run
// with must not keep recording into the old signature.
func TestRunDetachesSignature(t *testing.T) {
	v, _ := stencilView(t, 1)
	sig := signature.New(signature.Exact)
	v.Run(0, 3, 0, sig)
	if sig.Empty() {
		t.Fatal("speculative task recorded no accesses")
	}
	sig.Reset()
	v.Run(0, 4, 0, nil)
	if !sig.Empty() {
		t.Fatal("non-speculative task recorded into the previous task's signature")
	}
}
