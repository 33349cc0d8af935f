package workloadtest

import (
	"testing"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
)

// The allocation contract for engine instrumentation. A workload's engine
// views describe its accesses to the engines and do nothing else: DOMORE's
// ComputeAddr appends addresses to the scheduler's buffer, and SPECCROSS's
// Run records into the signature it is handed. Neither may build and throw
// away state of its own. The checks sample contractSamples invocations
// (epochs) spread over the region, and the first contractIters iterations
// (tasks) of each.
const (
	contractSamples = 16
	contractIters   = 4
)

// sampled reports whether invocation i of n is one of the contract's.
func sampled(i, n int) bool {
	step := max(n/contractSamples, 1)
	return i%step == 0 && i/step < contractSamples
}

// TestComputeAddrAllocatesNothing walks every DOMORE-applicable region in
// order on one thread, as the guard's inline probe does, and requires each
// sampled ComputeAddr call, after a warm-up into the same buffer, to make no
// allocation.
func TestComputeAddrAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, e := range workloads.All() {
		if !e.DomoreOK {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			w := Make(e).(domore.Workload)
			var buf []uint64
			n := w.Invocations()
			for inv := 0; inv < n; inv++ {
				w.Sequential(inv)
				iters := w.Iterations(inv)
				if k := min(iters, contractIters); sampled(inv, n) && k > 0 {
					allocs := testing.AllocsPerRun(8, func() {
						for it := 0; it < k; it++ {
							buf = w.ComputeAddr(inv, it, buf[:0])
						}
					})
					if allocs != 0 {
						t.Errorf("invocation %d: ComputeAddr makes %.1f allocations per call, want 0", inv, allocs/float64(k))
					}
				}
				for it := 0; it < iters; it++ {
					w.Execute(inv, it, 0)
				}
			}
		})
	}
}

// TestRunWithSignatureAllocatesWhatTheBodyDoes requires every SPECCROSS-
// applicable workload's Run, handed a warm signature of each kind, to make
// exactly the allocations Run with no signature makes: the body's own.
func TestRunWithSignatureAllocatesWhatTheBodyDoes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, e := range workloads.All() {
		if !e.SpecOK {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			w := Make(e).(speccross.Workload)
			kinds := []signature.Kind{signature.Range, signature.Bloom, signature.Exact}
			sigs := make([]*signature.Signature, len(kinds))
			for i, k := range kinds {
				sigs[i] = signature.New(k)
			}
			n := w.Epochs()
			for ep := 0; ep < n; ep++ {
				tasks := w.Tasks(ep)
				if k := min(tasks, contractIters); sampled(ep, n) && k > 0 {
					run := func(sig *signature.Signature) float64 {
						return testing.AllocsPerRun(8, func() {
							for task := 0; task < k; task++ {
								if sig != nil {
									sig.Reset()
								}
								w.Run(ep, task, 0, sig)
							}
						})
					}
					body := run(nil)
					for i, sig := range sigs {
						if got := run(sig); got != body {
							t.Errorf("epoch %d: Run with a %s signature makes %.1f allocations per task, without one %.1f",
								ep, kinds[i], got/float64(k), body/float64(k))
						}
					}
				}
				for task := 0; task < tasks; task++ {
					w.Run(ep, task, 0, nil)
				}
			}
		})
	}
}
