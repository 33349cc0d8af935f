package domore

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crossinv/internal/runtime/engine"
)

// records runs the scheduler of a run of w with no worker consuming, and
// returns what it sent each worker, end token aside, with the run's Stats.
// The queues are sized to hold everything the scheduler sends.
func records(t *testing.T, w Workload, opts Options) ([][]cond, Stats) {
	t.Helper()
	opts.QueueCap = 1 << 12
	opts.fill()
	rt := engine.Acquire(opts.Workers)
	defer rt.Release()
	st := stateOn(rt, &opts)
	st.begin(w, nil)
	defer st.Forget()
	var stats Stats
	st.schedule(&opts, &stats, position{})
	out := make([][]cond, opts.Workers)
	for tid, q := range st.queues {
		for {
			c, ok := q.TryConsume()
			if !ok {
				t.Fatalf("worker %d's queue has no end token", tid)
			}
			if c.Kind == kindEnd {
				break
			}
			out[tid] = append(out[tid], c)
		}
	}
	return out, stats
}

// cells builds an irregular workload from each iteration's cells.
func cells(invs ...[][]uint64) *irregular {
	w := &irregular{idx: invs}
	space := uint64(0)
	for _, iters := range invs {
		for _, as := range iters {
			for _, a := range as {
				space = max(space, a+1)
			}
			w.seqs = append(w.seqs, int64(len(w.seqs)+1))
		}
	}
	w.data = make([]int64, space)
	return w
}

// distinct is an invocation of n iterations, iteration i touching cell
// base+i alone.
func distinct(base, n int) [][]uint64 {
	iters := make([][]uint64, n)
	for i := range iters {
		iters[i] = []uint64{uint64(base + i)}
	}
	return iters
}

func run(inv, index int, iter int64, count int) cond {
	return cond{Kind: kindRun, Iter: iter, Inv: int32(inv), Index: int32(index), Count: int32(count)}
}

func dep(tid int, iter int64) cond { return cond{Kind: kindDep, Tid: int32(tid), Iter: iter} }

// TestRunsCoalesce pins the records the scheduler sends. Each worker's
// block of an invocation travels as one run record, cut where an iteration
// needs a condition, at the invocation's end and at runCap; under the
// round-robin seam every iteration is a record of its own. Batches counts
// the records.
func TestRunsCoalesce(t *testing.T) {
	// split: iteration 6 depends on iteration 1 (worker 0) and, newer, on
	// iteration 5 (its own worker 1), so it stays and needs a condition on
	// worker 0, whose open run holds iteration 1.
	split := distinct(0, 8)
	split[6] = []uint64{1, 5}
	long := distinct(0, 2*runCap+6)
	for _, tc := range []struct {
		name    string
		w       Workload
		opts    Options
		want    [][]cond
		batches int64
	}{
		{"block-split", cells(distinct(0, 12)), Options{Workers: 3},
			[][]cond{{run(0, 0, 0, 4)}, {run(0, 4, 4, 4)}, {run(0, 8, 8, 4)}}, 3},
		{"condition-splits-run", cells(split), Options{Workers: 2},
			[][]cond{{run(0, 0, 0, 4)}, {run(0, 4, 4, 2), dep(0, 1), run(0, 6, 6, 2)}}, 3},
		{"invocation-end", cells(distinct(0, 4), distinct(4, 4)), Options{Workers: 1},
			[][]cond{{run(0, 0, 0, 4), run(1, 0, 4, 4)}}, 2},
		{"run-cap", cells(long), Options{Workers: 1},
			[][]cond{{run(0, 0, 0, runCap), run(0, runCap, runCap, runCap), run(0, 2*runCap, 2*runCap, 6)}}, 3},
		{"fewer-iterations-than-workers", cells(distinct(0, 2), nil, distinct(2, 3)), Options{Workers: 4},
			[][]cond{{run(0, 0, 0, 1), run(2, 0, 2, 1)}, {run(2, 1, 3, 1)}, {run(0, 1, 1, 1), run(2, 2, 4, 1)}, nil}, 5},
		{"round-robin", roundRobin{cells(distinct(0, 6))}, Options{Workers: 3},
			[][]cond{{run(0, 0, 0, 1), run(0, 3, 3, 1)}, {run(0, 1, 1, 1), run(0, 4, 4, 1)}, {run(0, 2, 2, 1), run(0, 5, 5, 1)}}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, st := records(t, tc.w, tc.opts)
			for tid := range tc.want {
				if len(got[tid]) != len(tc.want[tid]) || len(got[tid]) > 0 && !reflect.DeepEqual(got[tid], tc.want[tid]) {
					t.Errorf("worker %d got %+v\nwant %+v", tid, got[tid], tc.want[tid])
				}
			}
			if st.Batches != tc.batches {
				t.Errorf("Batches = %d, want %d", st.Batches, tc.batches)
			}
			if st.Dispatches != st.Iterations {
				t.Errorf("Dispatches = %d, Iterations %d; single-owner", st.Dispatches, st.Iterations)
			}
		})
	}

}

// joining is irregular whose Sequential waits until every iteration of the
// earlier invocations has run, as a sequential region that joins on the
// workers does.
type joining struct {
	*irregular
	done atomic.Int64
}

func (w *joining) Sequential(inv int) {
	want := int64(0)
	for _, iters := range w.idx[:inv] {
		want += int64(len(iters))
	}
	for w.done.Load() < want {
		runtime.Gosched()
	}
}

func (w *joining) Execute(inv, it, tid int) {
	w.irregular.Execute(inv, it, tid)
	w.done.Add(1)
}

// crossing is a workload whose conditions name iterations in open runs:
// in every invocation, iteration i touches its predecessor's cell and the
// cell of the iteration one block earlier, so the first iteration of each
// block depends on the block before it and every later one on two workers.
func crossing(nw int, lens []int) *irregular {
	var invs [][][]uint64
	for _, n := range lens {
		bs := max(1, n/nw)
		iters := make([][]uint64, n)
		for i := range iters {
			iters[i] = []uint64{uint64(i)}
			if i > 0 {
				iters[i] = append(iters[i], uint64(i-1))
			}
			if i >= bs {
				iters[i] = append(iters[i], uint64(i-bs))
			}
		}
		invs = append(invs, iters)
	}
	return cells(invs...)
}

// TestRunsNeverStrandACondition: with one- and two-message rings and one to
// four workers, a scheduler that held a run some worker waits on, or held
// one across an invocation's end, would hang. Each case runs under a
// deadline of its own and must match the sequential result.
func TestRunsNeverStrandACondition(t *testing.T) {
	lens := []int{3, 17, 2 * runCap, 4*runCap + 5, 1, 0, 9}
	for _, qcap := range []int{1, 2} {
		for nw := 1; nw <= 4; nw++ {
			for _, shape := range []string{"crossing", "irregular", "joining"} {
				name := fmt.Sprintf("%s/queue-%d/workers-%d", shape, qcap, nw)
				t.Run(name, func(t *testing.T) {
					var w Workload
					var data *irregular
					switch shape {
					case "crossing":
						data = crossing(nw, lens)
						w = data
					case "irregular":
						data = newIrregularLens(rand.New(rand.NewSource(int64(nw))), lens, 12, 2)
						w = data
					default:
						data = crossing(nw, lens)
						w = &joining{irregular: data}
					}
					want := data.sequentialRun()
					done := make(chan Stats, 1)
					go func() { done <- RunParallel(w, Options{Workers: nw, QueueCap: qcap}) }()
					select {
					case st := <-done:
						checkIrregular(t, name, data, want)
						if shape == "crossing" && nw > 1 && st.SyncConditions == 0 {
							t.Fatal("no condition forwarded; the case lost its point")
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("%s: the run did not finish; something waits on a run the scheduler holds", name)
					}
				})
			}
		}
	}
}
