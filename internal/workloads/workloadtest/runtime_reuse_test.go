package workloadtest

import (
	"reflect"
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
	case "domore-sharded":
		return detDomore(domore.RunShardedOn(rt, inst.(domore.Workload), shardedOptions()))
	case "speccross":
		return detSpec(speccross.RunOn(rt, inst.(speccross.Workload), c.spec()))
	case "adaptive-domore":
		return adaptiveDet(adaptive.RunOn(rt, inst.(adaptive.Workload), c.adaptive(adaptive.EngineDomore)))
	case "adaptive-speccross":
		return adaptiveDet(adaptive.RunOn(rt, inst.(adaptive.Workload), c.adaptive(adaptive.EngineSpecCross)))
	}
	panic("unknown row " + row)
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
			want := map[string]detStats{}
			for _, row := range statsRows {
				if row.needs(e, c.ok) {
					want[row.name] = runFresh(row.name, Make(e), c)
				}
			}
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
