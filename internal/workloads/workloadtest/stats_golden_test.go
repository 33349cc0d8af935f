package workloadtest

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"sort"
	"testing"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
)

// updateGolden rewrites testdata/stats_golden.json from the build under
// test. The committed file was written this way at the commit before the
// engines moved onto the standing runtime (this file uses only entry points
// that commit has), so TestStatsMatchGolden pins "same schedule, same
// checkpoints" across that refactor and every later one.
//
// It was rewritten once since, when DOMORE's default assignment began to
// follow the dependence and RunSharded became Run. Only SyncConditions
// changed, on the domore and adaptive-domore rows of the programs that
// move iterations, and Batches, on the domore-sharded rows, which became
// the domore rows. Iterations, Dispatches, AddrChecks and every adaptive
// Windows, Switches and Spec field stayed as they were; the
// domore-round-robin rows, added then, carry the old domore rows' values.
//
// It was rewritten a second time when the default assignment gave each
// worker a contiguous block of every invocation and began sending a
// worker's consecutive iterations as one run record. Only SyncConditions
// moved, on the domore, domore-sharded and adaptive-domore rows of CG,
// ECLAT and PHASED, and Batches, which now counts run records on every
// domore row. Iterations, Dispatches, AddrChecks and every adaptive and
// Spec field stayed as they were.
//
// It was rewritten a third time when the cell image became SPECCROSS's only
// checkpoint and CG gained its cell map. Only DeltaCheckpoints and
// DeltaCells moved, on CG's speccross and adaptive-speccross rows, whose
// commits now refresh their dirty cells; no other field or row changed.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/stats_golden.json")

const goldenPath = "testdata/stats_golden.json"

// detStats are the Stats fields that are a function of the workload and the
// options alone — no Stalls, Tasks or checker counters, which depend on how
// threads interleave.
type detStats map[string]int64

func detDomore(s domore.Stats) detStats {
	return detStats{
		"Iterations": s.Iterations, "Dispatches": s.Dispatches, "SyncConditions": s.SyncConditions,
		"AddrChecks": s.AddrChecks, "Batches": s.Batches,
	}
}

func detSpec(s speccross.Stats) detStats {
	return detStats{
		"Epochs": s.Epochs, "Checkpoints": s.Checkpoints, "Misspeculations": s.Misspeculations,
		"ReexecutedEpochs": s.ReexecutedEpochs, "DeltaCheckpoints": s.DeltaCheckpoints,
		"DeltaCells": s.DeltaCells,
	}
}

// statsRow is one engine configuration of the equivalence suite, with the
// options EnginesMatchSequential runs it under (untraced). The adaptive row
// pins its policy: the default one reads checker pressure, which is timing.
type statsRow struct {
	name string
	// spec marks the rows that run SPECCROSS, and so have checker shards.
	spec bool
	// needs reports whether the row applies to the entry; ok is whether the
	// §4.4 profile finds speculation profitable at 4 workers.
	needs func(e workloads.Entry, ok bool) bool
}

var statsRows = []statsRow{
	{"domore", false, func(e workloads.Entry, _ bool) bool { return e.DomoreOK }},
	{"domore-round-robin", false, func(e workloads.Entry, _ bool) bool { return e.DomoreOK }},
	{"domore-sharded", false, func(e workloads.Entry, _ bool) bool { return e.DomoreOK }},
	{"speccross", true, func(e workloads.Entry, ok bool) bool { return e.SpecOK && ok }},
	{"adaptive-domore", false, func(e workloads.Entry, _ bool) bool { return e.DomoreOK && e.SpecOK }},
	{"adaptive-speccross", true, func(e workloads.Entry, ok bool) bool { return e.DomoreOK && e.SpecOK && ok }},
}

// rowConfig carries what every row of one entry shares. shards is the
// SPECCROSS rows' CheckerShards; 0 leaves the default, which depends on the
// host's processor count — the deterministic Stats do not.
type rowConfig struct {
	kind   signature.Kind
	dist   int64
	ok     bool
	shards int
}

func configFor(e workloads.Entry) rowConfig {
	c := rowConfig{kind: signature.Range}
	if e.Exact {
		c.kind = signature.Exact
	}
	pr := speccross.Profile(Make(e).(speccross.Workload), c.kind, 8)
	c.dist, c.ok = pr.Recommended(4)
	return c
}

// shardedOptions are what the benchmark's domore-sharded rows pass.
func shardedOptions() domore.Options { return domore.Options{Workers: 4, Lanes: 3} }

func (c rowConfig) spec() speccross.Config {
	return speccross.Config{Workers: 4, CheckpointEvery: 200, SigKind: c.kind, SpecDistance: c.dist, CheckerShards: c.shards}
}

func (c rowConfig) adaptive(pin adaptive.Engine) adaptive.Config {
	cfg := adaptive.Config{Workers: 4, Policy: adaptive.Fixed(pin), Start: pin}
	cfg.Spec.SigKind = c.kind
	cfg.Spec.SpecDistance = c.dist
	cfg.Spec.CheckerShards = c.shards
	return cfg
}

func adaptiveDet(s adaptive.Stats) detStats {
	d := detStats{"Windows": int64(s.Windows), "Switches": int64(s.Switches)}
	for k, v := range detDomore(s.Domore) {
		d["Domore."+k] = v
	}
	for k, v := range detSpec(s.Spec) {
		d["Spec."+k] = v
	}
	return d
}

// runPooled runs one row on a runtime borrowed from the engine pool for the
// call: through the engine's own entry point, except where that entry
// point's guard decides by measurement how much of the region to run in
// parallel — the DOMORE, SPECCROSS and adaptive rows. Those run
// domore.RunParallel, speccross.RunParallel and adaptive.RunParallel, the
// parallel executions on a borrowed runtime.
func runPooled(row string, inst workloads.Instance, c rowConfig) detStats {
	switch row {
	case "domore":
		return detDomore(domore.RunParallel(inst.(domore.Workload), domore.Options{Workers: 4}))
	case "domore-round-robin":
		return detDomore(domore.RunParallel(roundRobin{inst.(domore.Workload)}, domore.Options{Workers: 4}))
	case "domore-sharded":
		return detDomore(domore.RunParallel(inst.(domore.Workload), shardedOptions()))
	case "speccross":
		return detSpec(speccross.RunParallel(inst.(speccross.Workload), c.spec()))
	case "adaptive-domore":
		return adaptiveDet(adaptive.RunParallel(inst.(adaptive.Workload), c.adaptive(adaptive.EngineDomore)))
	case "adaptive-speccross":
		return adaptiveDet(adaptive.RunParallel(inst.(adaptive.Workload), c.adaptive(adaptive.EngineSpecCross)))
	}
	panic("unknown row " + row)
}

// TestStatsMatchGolden runs every row of every registry workload and
// compares the deterministic Stats fields, and the checksum, with the
// committed golden values — under one checker shard and under two, which
// are the two values the default takes (the file was written at two).
func TestStatsMatchGolden(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the golden values are for unshrunk regions (see Make)")
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil && !*updateGolden {
		t.Fatal(err)
	}
	want := map[string]detStats{}
	if err := json.Unmarshal(data, &want); err != nil && !*updateGolden {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// The domore rows do not depend on the shard count: they run once.
	got := map[int]map[string]detStats{1: {}, 2: {}}
	for _, e := range workloads.All() {
		c := configFor(e)
		golden := Make(e)
		golden.RunSequential()
		for _, row := range statsRows {
			if !row.needs(e, c.ok) {
				continue
			}
			for shards := 1; shards <= 2; shards++ {
				if shards == 2 && !row.spec {
					got[2][e.Name+"/"+row.name] = got[1][e.Name+"/"+row.name]
					continue
				}
				c.shards = shards
				inst := Make(e)
				d := runPooled(row.name, inst, c)
				if inst.Checksum() != golden.Checksum() {
					t.Errorf("%s/%s, %d checker shards: checksum %x != sequential %x", e.Name, row.name, shards, inst.Checksum(), golden.Checksum())
				}
				got[shards][e.Name+"/"+row.name] = d
			}
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got[2], "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for shards, got := range got {
		for _, k := range keys {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("%s, %d checker shards:\n got  %v\n want %v", k, shards, got[k], want[k])
			}
		}
		if len(got) != len(want) {
			t.Errorf("%d rows ran under %d checker shards, golden file has %d", len(got), shards, len(want))
		}
	}
}
