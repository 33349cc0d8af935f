package doall

import (
	"sync"
	"sync/atomic"
	"testing"

	"crossinv/internal/runtime/sched"
)

func TestRunMatchesSequentialStencil(t *testing.T) {
	// Two alternating loops with cross-invocation dependences (the Fig 1.3
	// program): L1 writes A from B, L2 writes B from A. Barriers make the
	// parallel result identical to sequential execution.
	const m = 64
	const steps = 10
	seqA := make([]int64, m+1)
	seqB := make([]int64, m+2)
	parA := make([]int64, m+1)
	parB := make([]int64, m+2)
	for i := range seqB {
		seqB[i] = int64(i)
		parB[i] = int64(i)
	}

	for tstep := 0; tstep < steps; tstep++ {
		for i := 0; i < m; i++ {
			seqA[i] = seqB[i] + seqB[i+1]
		}
		for j := 1; j < m+1; j++ {
			seqB[j] = seqA[j-1] + seqA[j]
		}
	}

	Run(4, func(k int) (Loop, bool) {
		if k >= 2*steps {
			return Loop{}, false
		}
		if k%2 == 0 {
			return Loop{N: m, Body: func(i, _ int) { parA[i] = parB[i] + parB[i+1] }}, true
		}
		return Loop{N: m, Body: func(j, _ int) { parB[j+1] = parA[j] + parA[j+1] }}, true
	}, nil)

	for i := range seqA {
		if seqA[i] != parA[i] {
			t.Fatalf("A[%d] = %d, want %d", i, parA[i], seqA[i])
		}
	}
	for i := range seqB {
		if seqB[i] != parB[i] {
			t.Fatalf("B[%d] = %d, want %d", i, parB[i], seqB[i])
		}
	}
}

func TestRunSerialSectionRunsOncePerInvocation(t *testing.T) {
	var serialCalls atomic.Int64
	var iters atomic.Int64
	const invocations = 7
	Run(3, func(k int) (Loop, bool) {
		if k >= invocations {
			return Loop{}, false
		}
		return Loop{N: 10, Body: func(_, _ int) { iters.Add(1) }}, true
	}, func(k int) {
		serialCalls.Add(1)
	})
	// serial runs before each invocation fetch, including the final probe.
	if got := serialCalls.Load(); got != invocations+1 {
		t.Fatalf("serial calls = %d, want %d", got, invocations+1)
	}
	if got := iters.Load(); got != invocations*10 {
		t.Fatalf("iterations = %d, want %d", got, invocations*10)
	}
}

func TestRunBarrierStatsAccumulate(t *testing.T) {
	bar := Run(2, func(k int) (Loop, bool) {
		if k >= 3 {
			return Loop{}, false
		}
		return Loop{N: 8, Body: func(_, _ int) {}}, true
	}, nil)
	_, waits := bar.Stats()
	if waits == 0 {
		t.Fatal("expected barrier waits to be recorded")
	}
}

func TestRunDOANYAtomicCounters(t *testing.T) {
	// Each iteration increments one of a few shared counters under its lock;
	// the final totals must equal the sequential result regardless of order
	// (commutativity is what DOANY requires, §2.2).
	const n = 1000
	const buckets = 4
	counts := make([]int64, buckets)
	locks := make([]sync.Mutex, buckets)
	RunDOANY(4, Loop{N: n, Body: func(i, _ int) {
		counts[i%buckets]++
	}}, func(i int) []int { return []int{i % buckets} }, locks)
	for b := 0; b < buckets; b++ {
		if counts[b] != n/buckets {
			t.Fatalf("bucket %d = %d, want %d", b, counts[b], n/buckets)
		}
	}
}

func TestRunDOANYMultipleLocksNoDeadlock(t *testing.T) {
	const n = 500
	var total int64
	locks := make([]sync.Mutex, 3)
	RunDOANY(4, Loop{N: n, Body: func(i, _ int) {
		total++
	}}, func(i int) []int { return []int{0, 1, 2} }, locks)
	if total != n {
		t.Fatalf("total = %d, want %d", total, n)
	}
}

func TestRunLOCALWRITEOwnerComputes(t *testing.T) {
	// Irregular updates through an index array (Fig 2.3(c)): node[idx[i]]++.
	// Under LOCALWRITE each element is updated exactly once, by its owner.
	const n = 400
	const space = 100
	idx := make([]int, n)
	for i := range idx {
		idx[i] = (i * 37) % space
	}
	seq := make([]int64, space)
	for i := 0; i < n; i++ {
		seq[idx[i]]++
	}

	par := make([]int64, space)
	writers := make([][]int, space) // which tid wrote each cell
	var mu sync.Mutex
	partition := sched.NewLocalWrite(space)
	RunLOCALWRITE(4, n, partition, func(i, tid int, owns func(uint64) bool) {
		a := uint64(idx[i])
		if owns(a) {
			par[a]++ // no lock needed: single owner per address
			mu.Lock()
			writers[a] = append(writers[a], tid)
			mu.Unlock()
		}
	})

	for a := 0; a < space; a++ {
		if par[a] != seq[a] {
			t.Fatalf("cell %d = %d, want %d", a, par[a], seq[a])
		}
		for _, w := range writers[a] {
			if w != partition.Owner(uint64(a), 4) {
				t.Fatalf("cell %d written by non-owner %d", a, w)
			}
		}
	}
}

func TestInvalidWorkersPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"Run":           func() { Run(0, nil, nil) },
		"RunDOANY":      func() { RunDOANY(0, Loop{}, nil, nil) },
		"RunLOCALWRITE": func() { RunLOCALWRITE(0, 0, sched.NewLocalWrite(1), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with 0 workers did not panic", name)
				}
			}()
			f()
		}()
	}
}
