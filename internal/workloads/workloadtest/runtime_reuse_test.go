package workloadtest

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
)

// runOn is runFresh on a handed-in runtime.
func runOn(rt *engine.Runtime, row string, inst workloads.Instance, c rowConfig) detStats {
	switch row {
	case "domore":
		return detDomore(domore.RunOn(rt, inst.(domore.Workload), domore.Options{Workers: 4}))
	case "domore-round-robin":
		return detDomore(domore.RunOn(rt, roundRobin{inst.(domore.Workload)}, domore.Options{Workers: 4}))
	case "domore-sharded":
		return detDomore(domore.RunOn(rt, inst.(domore.Workload), shardedOptions()))
	case "speccross":
		return detSpec(speccross.RunOn(rt, inst.(speccross.Workload), c.spec()))
	case "adaptive-domore":
		return adaptiveDet(adaptive.RunOn(rt, inst.(adaptive.Workload), c.adaptive(adaptive.EngineDomore)))
	case "adaptive-speccross":
		return adaptiveDet(adaptive.RunOn(rt, inst.(adaptive.Workload), c.adaptive(adaptive.EngineSpecCross)))
	}
	panic("unknown row " + row)
}

// freshStats runs every applicable row of e on a runtime built for that run
// alone and closed after it: what the reuse tests compare against.
func freshStats(e workloads.Entry, c rowConfig) map[string]detStats {
	want := map[string]detStats{}
	for _, row := range statsRows {
		if row.needs(e, c.ok) {
			rt := engine.New(4)
			want[row.name] = runOn(rt, row.name, Make(e), c)
			rt.Close()
		}
	}
	return want
}

// TestReusedRuntimeMatchesFresh runs every row of a workload back to back
// on one runtime — different engines taking turns on the same threads,
// rings, checker log and arenas — twice over, and requires each run's
// checksum and deterministic Stats to equal those of the same row on a
// runtime of its own.
func TestReusedRuntimeMatchesFresh(t *testing.T) {
	for _, e := range workloads.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			c := configFor(e)
			golden := Make(e)
			golden.RunSequential()
			want := freshStats(e, c)
			rt := engine.New(4)
			defer rt.Close()
			runs := 0
			for round := 0; round < 2; round++ {
				for _, row := range statsRows {
					if !row.needs(e, c.ok) {
						continue
					}
					inst := Make(e)
					got := runOn(rt, row.name, inst, c)
					runs++
					if inst.Checksum() != golden.Checksum() {
						t.Errorf("round %d %s: checksum %x != sequential %x", round, row.name, inst.Checksum(), golden.Checksum())
					}
					if !reflect.DeepEqual(got, want[row.name]) {
						t.Errorf("round %d %s on a reused runtime:\n got  %v\n want %v", round, row.name, got, want[row.name])
					}
				}
			}
			if runs < 3 && len(want) > 1 {
				t.Fatalf("only %d runs shared the runtime", runs)
			}
		})
	}
}

// TestPooledRuntimeMatchesFresh is the same claim for the engine pool: every
// row of every registry workload, plus the barrier plan, through the public
// entry points, back to back in a seed-shuffled order and at alternating
// checker-shard counts, on whichever runtime the pool hands out — which is
// one runtime for the whole test, whatever engine, workload, queue capacity,
// signature kind or shard count the run before it had. Data and
// deterministic Stats equal those of a run on a runtime of its own.
func TestPooledRuntimeMatchesFresh(t *testing.T) {
	type run struct {
		e      workloads.Entry
		c      rowConfig
		row    string // "barrier" beside the statsRows names
		want   detStats
		golden uint64
	}
	var runs []run
	for _, e := range workloads.All() {
		c := configFor(e)
		golden := Make(e)
		golden.RunSequential()
		want := freshStats(e, c)
		for row, d := range want {
			runs = append(runs, run{e, c, row, d, golden.Checksum()})
		}
		if e.SpecOK {
			runs = append(runs, run{e, c, "barrier", nil, golden.Checksum()})
		}
	}
	sort.Slice(runs, func(i, j int) bool {
		return runs[i].e.Name+"/"+runs[i].row < runs[j].e.Name+"/"+runs[j].row
	})
	engine.CloseIdle()
	defer engine.CloseIdle()
	created, _, _ := engine.Counters()
	for seed := int64(1); seed <= 2; seed++ {
		rand.New(rand.NewSource(seed)).Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		for i, r := range runs {
			r.c.shards = 1 + i%2
			inst := Make(r.e)
			var got detStats
			if r.row == "barrier" {
				speccross.RunBarriers(inst.(speccross.Workload), 4)
			} else {
				got = runPooled(r.row, inst, r.c)
			}
			if inst.Checksum() != r.golden {
				t.Errorf("seed %d, run %d, %s/%s: checksum %x != sequential %x", seed, i, r.e.Name, r.row, inst.Checksum(), r.golden)
			}
			if !reflect.DeepEqual(got, r.want) {
				t.Errorf("seed %d, run %d, %s/%s on a pooled runtime:\n got  %v\n want %v", seed, i, r.e.Name, r.row, got, r.want)
			}
		}
	}
	if c, _, _ := engine.Counters(); c != created+1 {
		t.Errorf("%d runtimes built for %d pooled runs at one worker count, want 1", c-created, 2*len(runs))
	}
}
