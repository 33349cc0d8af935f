package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/speccross"
)

// seedCount scales the differential sweeps: the race detector slows every
// engine run by an order of magnitude, so -race suites sample fewer seeds
// (CI runs the full sweep via cmd/chaos).
func seedCount() int {
	if raceflag.Enabled {
		return 3
	}
	return 8
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		a := Generate(seed) // panics on an invalid construction
		b := Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
		if got, want := a.SequentialState(), b.SequentialState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: sequential oracle is not deterministic", seed)
		}
	}
}

func TestGenerateCoversShapes(t *testing.T) {
	kinds := map[string]bool{}
	var deps, multi, bothPaths int
	for seed := uint64(1); seed <= 64; seed++ {
		s := Generate(seed)
		kinds[s.SigKind] = true
		var full, partial bool
		for _, ep := range s.Epochs {
			full = full || len(ep.Tasks) >= shardBatch
			partial = partial || len(ep.Tasks)%shardBatch != 0
		}
		if full && partial {
			bothPaths++
		}
		if s.NumEpochs() > 1 {
			multi++
		}
		if s.TotalTasks() > int64(s.NumEpochs()) {
			deps++
		}
	}
	for _, k := range []string{"range", "bloom", "exact"} {
		if !kinds[k] {
			t.Errorf("64 seeds never produced sig kind %q", k)
		}
	}
	if multi < 32 || deps < 16 {
		t.Errorf("generator variety too low: %d multi-epoch, %d multi-task of 64", multi, deps)
	}
	// Invocation lengths must straddle the sharded scheduler's chunk size, so
	// that single cases run both the lanes' detection and the driver's.
	if bothPaths < 8 {
		t.Errorf("only %d of 64 cases have both a full and a partial chunk at Batch %d", bothPaths, shardBatch)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	spec := Generate(7)
	data, err := spec.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "case.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip changed the spec:\n%+v\n%+v", got, spec)
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	opts := Options{Faults: AllFaults(3), Mutation: MutDropAddr}
	art := NewArtifact(3, opts, Generate(3), []Failure{{Engine: "domore", Detail: "x"}})
	path, err := art.WriteFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// LoadSpec accepts the artifact wrapper wherever a bare spec works.
	spec, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, art.Spec) {
		t.Fatal("artifact round trip changed the spec")
	}
	back, err := art.Options()
	if err != nil {
		t.Fatal(err)
	}
	if back.Faults.String() != opts.Faults.String() || back.Mutation != opts.Mutation {
		t.Fatalf("artifact options round trip: got %+v", back)
	}
}

func TestParseFaultsAndMutation(t *testing.T) {
	p, err := ParseFaults("queue-full, panic", 9)
	if err != nil || !p.QueueFull || !p.Panic || p.Timeout {
		t.Fatalf("ParseFaults: %+v, %v", p, err)
	}
	if p.String() != "queue-full,panic" {
		t.Fatalf("String: %q", p.String())
	}
	if _, err := ParseFaults("bogus", 0); err == nil {
		t.Fatal("bogus fault accepted")
	}
	if all := AllFaults(1); all.String() != "queue-full,delay,sig-conflict,panic,timeout,torn-state,torn-delta,shard-skew,dirty-runtime" {
		t.Fatalf("AllFaults string: %q", all.String())
	}
	if (FaultPlan{}).Active() || !AllFaults(0).Active() {
		t.Fatal("Active wrong")
	}
	if _, err := ParseMutation("drop-addr"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMutation("bogus"); err == nil {
		t.Fatal("bogus mutation accepted")
	}
}

func TestValidateRejectsBrokenSpecs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Spec)
	}{
		{"write out of range", func(s *Spec) { s.Epochs[0].Tasks[0].Writes = []uint64{99} }},
		{"read out of range", func(s *Spec) { s.Epochs[0].Tasks[0].Reads = []uint64{99} }},
		{"write-write overlap", func(s *Spec) {
			s.Epochs[0].Tasks[0].Writes = []uint64{1}
			s.Epochs[0].Tasks[1].Writes = []uint64{1}
		}},
		{"read-write overlap", func(s *Spec) {
			s.Epochs[0].Tasks[0].Writes = []uint64{1}
			s.Epochs[0].Tasks[1].Reads = []uint64{1}
		}},
		{"bad sig kind", func(s *Spec) { s.SigKind = "sha" }},
		{"no epochs", func(s *Spec) { s.Epochs = nil }},
	} {
		s := &Spec{Name: "v", StateLen: 4, Epochs: []EpochSpec{{Tasks: make([]TaskSpec, 2)}}}
		tc.mod(s)
		if s.Validate() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestDifferentialCleanSeeds is the core oracle check: with no faults and
// no mutation, every engine must reproduce the sequential state exactly,
// untraced and traced, for every generated case.
func TestDifferentialCleanSeeds(t *testing.T) {
	for seed := uint64(1); seed <= uint64(seedCount()); seed++ {
		for _, f := range RunSeed(seed, Options{}) {
			t.Errorf("seed %d: %s", seed, f)
		}
	}
}

// TestDifferentialAllFaults re-runs the sweep with every fault injected.
// Faults force the recovery machinery (rollback, barrier re-execution,
// queue backoff, torn-state repair) but never change semantics, so the
// oracle must still hold.
func TestDifferentialAllFaults(t *testing.T) {
	for seed := uint64(1); seed <= uint64(seedCount()); seed++ {
		for _, f := range RunSeed(seed, Options{Faults: AllFaults(seed)}) {
			t.Errorf("seed %d: %s", seed, f)
		}
	}
}

// TestDifferentialDirtyRuntime runs the sweep with only the dirty-runtime
// fault enabled, so the pass that shares one engine runtime between a
// faulting run and every engine after it is what the seeds exercise; the
// seed walks through all four ways the runtime is dirtied.
func TestDifferentialDirtyRuntime(t *testing.T) {
	for seed := uint64(1); seed <= uint64(seedCount()); seed++ {
		for _, f := range RunSeed(seed, Options{Faults: FaultPlan{Seed: seed, DirtyRuntime: true}}) {
			t.Errorf("seed %d (%s): %s", seed, dirtyKinds[seed%uint64(len(dirtyKinds))], f)
		}
	}
}

// TestDifferentialTornDelta runs the sweep with only the torn-delta fault
// enabled: without TornState forcing full snapshots, the engines keep the
// incremental-checkpoint path, so the scribbled cell is repaired by a
// delta restore — and semantics must still hold.
func TestDifferentialTornDelta(t *testing.T) {
	for seed := uint64(1); seed <= uint64(seedCount()); seed++ {
		for _, f := range RunSeed(seed, Options{Faults: FaultPlan{Seed: seed, TornDelta: true}}) {
			t.Errorf("seed %d: %s", seed, f)
		}
	}
}

// TestTornDeltaExercisesDeltaRestore pins that the torn-delta fault really
// drives the incremental rollback (rather than being silently absorbed by
// a full snapshot): a speccross run over a delta-capable case with the
// fault must record at least one delta restore and still match the oracle.
func TestTornDeltaExercisesDeltaRestore(t *testing.T) {
	spec := MutationCatcher()
	want := spec.SequentialState()
	k := spec.Kernel()
	w := FaultPlan{TornDelta: true}.Wrap(k, k, spec.NumEpochs())
	st := speccross.Run(w, speccross.Config{
		Workers: 4, SigKind: spec.Kind(), CheckpointEvery: 3,
	})
	if st.DeltaRestores == 0 {
		t.Fatalf("torn-delta run recorded no delta restores: %+v", st)
	}
	if st.Misspeculations == 0 {
		t.Fatalf("torn-delta run recorded no misspeculation: %+v", st)
	}
	for i, v := range k.State {
		if v != want[i] {
			t.Fatalf("state[%d] = %d, oracle %d", i, v, want[i])
		}
	}
}

// TestMutationsCaughtAndShrunk proves the harness detects deliberately
// injected engine-contract bugs: each mutation applied to the catcher
// case must produce a failure, and the shrinker must reduce the case to a
// smaller spec that still fails and survives a serialization round trip.
func TestMutationsCaughtAndShrunk(t *testing.T) {
	for _, m := range Mutations() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			spec := m.Catcher()
			opts := Options{Mutation: m, Faults: m.Faults()}
			opts.Faults.Seed = 0

			var fails []Failure
			for i := 0; i < 10 && len(fails) == 0; i++ {
				for _, traced := range []bool{false, true} {
					o := opts
					o.Traced = traced
					if f := RunSpec(spec, o); len(f) > 0 {
						fails = f
						break
					}
				}
			}
			if len(fails) == 0 {
				t.Fatalf("mutation %s was not detected in 10 differential runs", m)
			}

			shrunk, sfails := Shrink(spec, opts, 3)
			if shrunk == nil {
				t.Fatalf("mutation %s: failing case did not reproduce for the shrinker", m)
			}
			if len(sfails) == 0 {
				t.Fatalf("mutation %s: shrinker returned no failures", m)
			}
			if shrunk.TotalTasks() > spec.TotalTasks() {
				t.Errorf("shrunk case grew: %d tasks > %d", shrunk.TotalTasks(), spec.TotalTasks())
			}
			if err := shrunk.Validate(); err != nil {
				t.Errorf("shrunk case invalid: %v", err)
			}

			art := NewArtifact(0, opts, shrunk, sfails)
			path, err := art.WriteFile(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadSpec(path); err != nil {
				t.Errorf("shrunk artifact does not load: %v", err)
			}
		})
	}
}

// TestReplayTestdata re-runs every committed shrunk artifact with its
// recorded settings and requires the failure to reproduce — the
// regression guarantee that a once-caught bug stays caught.
func TestReplayTestdata(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed artifacts under testdata/")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var art Artifact
			if err := json.Unmarshal(data, &art); err != nil {
				t.Fatal(err)
			}
			if art.Spec == nil {
				t.Fatal("artifact has no spec")
			}
			if err := art.Spec.Validate(); err != nil {
				t.Fatal(err)
			}
			opts, err := art.Options()
			if err != nil {
				t.Fatal(err)
			}
			if opts.Mutation == MutNone {
				t.Fatal("committed artifact records no mutation: a real engine bug would have to be fixed, not committed")
			}
			for i := 0; i < 10; i++ {
				for _, traced := range []bool{false, true} {
					o := opts
					o.Traced = traced
					if f := RunSpec(art.Spec, o); len(f) > 0 {
						return
					}
				}
			}
			t.Errorf("recorded failure did not reproduce in 10 runs")
		})
	}
}
