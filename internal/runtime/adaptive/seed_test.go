package adaptive_test

import (
	"runtime"
	"testing"

	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads/epochal"
)

func TestSeedFromProfile(t *testing.T) {
	// Profitable: distance at/above the worker count starts SPECCROSS
	// with the profiled bound installed.
	var cfg adaptive.Config
	cfg.SeedFromProfile(16, 4)
	if cfg.Start != adaptive.EngineSpecCross || cfg.Spec.SpecDistance != 16 {
		t.Errorf("profitable seed: start %v distance %d, want speccross/16", cfg.Start, cfg.Spec.SpecDistance)
	}
	if cfg.Policy != nil {
		t.Error("profitable seed must leave the policy adaptive")
	}

	// No observed conflict: unbounded speculation.
	cfg = adaptive.Config{}
	cfg.SeedFromProfile(speccross.NoConflict, 4)
	if cfg.Start != adaptive.EngineSpecCross || cfg.Spec.SpecDistance != 0 {
		t.Errorf("no-conflict seed: start %v distance %d, want speccross/0", cfg.Start, cfg.Spec.SpecDistance)
	}

	// Unprofitable: §4.4 declines to speculate — pinned to DOMORE.
	cfg = adaptive.Config{}
	cfg.SeedFromProfile(2, 4)
	if cfg.Start != adaptive.EngineDomore {
		t.Errorf("unprofitable seed started %v, want domore", cfg.Start)
	}
	fixed, ok := cfg.Policy.(adaptive.Fixed)
	if !ok || adaptive.Engine(fixed) != adaptive.EngineDomore {
		t.Errorf("unprofitable seed policy = %#v, want Fixed(domore)", cfg.Policy)
	}
}

func TestSeedFromFacts(t *testing.T) {
	// Provably DOALL across invocations: barrier-free speculation, pinned.
	var cfg adaptive.Config
	if !cfg.SeedFromFacts("none", 0) {
		t.Fatal("SeedFromFacts rejected class none")
	}
	if cfg.Start != adaptive.EngineSpecCross || cfg.Spec.SpecDistance != 0 {
		t.Errorf("none seed: start %v distance %d, want speccross/0", cfg.Start, cfg.Spec.SpecDistance)
	}
	fixed, ok := cfg.Policy.(adaptive.Fixed)
	if !ok || adaptive.Engine(fixed) != adaptive.EngineSpecCross {
		t.Errorf("none seed policy = %#v, want Fixed(speccross)", cfg.Policy)
	}

	// Forward-only: the DOMORE pipeline regime, with the proven distance
	// pre-loaded as the speculative bound for a later escalation.
	cfg = adaptive.Config{}
	if !cfg.SeedFromFacts("forward-only", 12) {
		t.Fatal("SeedFromFacts rejected class forward-only")
	}
	if cfg.Start != adaptive.EngineDomore || cfg.Spec.SpecDistance != 12 {
		t.Errorf("forward-only seed: start %v distance %d, want domore/12", cfg.Start, cfg.Spec.SpecDistance)
	}
	if cfg.Policy != nil {
		t.Error("forward-only seed must leave the policy adaptive")
	}

	// Cyclic and unknown: speculate, unpinned.
	for _, class := range []string{"cyclic", "unknown"} {
		cfg = adaptive.Config{}
		if !cfg.SeedFromFacts(class, 0) {
			t.Fatalf("SeedFromFacts rejected class %s", class)
		}
		if cfg.Start != adaptive.EngineSpecCross || cfg.Policy != nil {
			t.Errorf("%s seed: start %v policy %#v, want unpinned speccross", class, cfg.Start, cfg.Policy)
		}
	}

	// Schema drift: an unrecognized class must not touch the config.
	cfg = adaptive.Config{}
	if cfg.SeedFromFacts("diagonal", 3) {
		t.Error("SeedFromFacts accepted an unknown class")
	}
	if cfg.Start != adaptive.EngineDomore || cfg.Spec.SpecDistance != 0 {
		t.Errorf("rejected seed mutated the config: %+v", cfg)
	}
}

// TestStaticSeedReachesStableEngineSooner is the ROADMAP item 5 claim in
// miniature: on the phased kernel (whose first phase is conflict-heavy,
// making DOMORE the right opening engine), a cold start — no knowledge, so
// the blind barrier baseline — needs a probe window before the policy
// lands on DOMORE, while a statically seeded run (xdep proved the
// dependences forward-only) opens there. Both must still match sequential.
// Every window posts (RunParallel), so every one feeds the policy.
func TestStaticSeedReachesStableEngineSooner(t *testing.T) {
	firstStable := func(seed bool) int {
		want := seqChecksum(false)
		k := buildKernel(false)
		cfg := adaptive.Config{Workers: 4, Window: 8}
		if seed {
			if !cfg.SeedFromFacts("forward-only", safeDist) {
				t.Fatal("SeedFromFacts rejected forward-only")
			}
		} else {
			cfg.Start = adaptive.EngineBarrier
			// Speculating over the kernel's real conflicts races by design
			// (see internal/raceflag): gate the cold arm at the safe
			// distance, as every other adaptive test does.
			cfg.Spec.SpecDistance = safeDist
		}
		stats := adaptive.RunParallel(k, cfg)
		if got := k.Checksum(); got != want {
			t.Fatalf("seed=%v checksum %x != sequential %x", seed, got, want)
		}
		for i, s := range stats.Samples {
			if s.Engine == adaptive.EngineDomore {
				return i
			}
		}
		t.Fatalf("seed=%v never ran DOMORE: %+v", seed, stats.Samples)
		return -1
	}
	cold := firstStable(false)
	seeded := firstStable(true)
	if seeded >= cold {
		t.Errorf("seeded run reached DOMORE at window %d, cold at %d; want seeded < cold", seeded, cold)
	}
	if seeded != 0 {
		t.Errorf("seeded run's first window ran the wrong engine (stable at %d, want 0)", seeded)
	}
}

// TestSeededRunMatchesSequential executes a profile-seeded adaptive run end
// to end on the phased test kernel and checks the result still matches
// sequential — seeding biases decisions, never correctness — and that the
// seeded start engine actually ran the first window (the cold probe was
// skipped).
func TestSeededRunMatchesSequential(t *testing.T) {
	want := seqChecksum(false)
	k := buildKernel(false)
	cfg := adaptive.Config{Workers: 4, Window: 8}
	cfg.SeedFromProfile(safeDist, 4) // profitable: 15 ≥ 4, gated and race-free
	stats := adaptive.Run(k, cfg)
	if stats.Windows == 0 {
		t.Fatal("no windows executed")
	}
	if stats.Samples[0].Engine != adaptive.EngineSpecCross {
		t.Errorf("first window ran %v, want the seeded speccross start", stats.Samples[0].Engine)
	}
	if got := k.Checksum(); got != want {
		t.Errorf("seeded adaptive checksum %x != sequential %x", got, want)
	}
}

// seedKernel is a forward-only pipeline of 48 epochs × 32 tasks: every task
// owns a cell, and task 0 of every epoch also rewrites one hot cell, so
// conflicting tasks sit exactly one epoch (32 tasks) apart — the distance
// the xdep analyzer proves — and the manifest rate, 1/32, is below the
// threshold policy's SpecEnter bound. Task 0 yields inside its compute, so
// even on one processor other workers start later-epoch tasks while it
// runs: the overlap unbounded speculation misspeculates on.
func seedKernel() *epochal.Kernel {
	const epochs, tasks, hot = 48, 32, 48 * 32
	k := &epochal.Kernel{State: make([]int64, hot+1), NumEpochs: epochs}
	k.TasksOf = func(int) int { return tasks }
	k.Access = func(e, t int, reads, writes []uint64) ([]uint64, []uint64) {
		a := uint64(e*tasks + t)
		if t == 0 {
			return append(reads, a, hot), append(writes, a, hot)
		}
		return append(reads, a), append(writes, a)
	}
	k.Update = func(e, t int) {
		g := e*tasks + t
		v := k.State[g]
		for i := 0; i < 5000; i++ {
			v = v*6364136223846793005 + 1442695040888963407
			if t == 0 && i%500 == 0 {
				runtime.Gosched()
			}
		}
		k.State[g] = v*3 + int64(g) + 1
		if t == 0 {
			k.State[hot] = k.State[hot]*3 + int64(e) + 1
		}
	}
	return k
}

// TestSeedKernelBehavior pins what the analyzer's facts buy the adaptive
// runtime: the cold controller escalates to unbounded speculation and
// misspeculates on the hot-cell recurrence, while the run seeded with the
// proven forward-only distance speculates inside that bound and never rolls
// back. Both must match the sequential result — seeding is a performance
// fact, never a correctness one. Every window posts (RunParallel): a window
// Run's guard keeps inline cannot misspeculate.
func TestSeedKernelBehavior(t *testing.T) {
	const minDistance = 32
	seq := seedKernel()
	seq.RunSequential()
	want := seq.Checksum()

	run := func(static bool) (spec, misspec int) {
		cfg := adaptive.Config{Workers: 4, Window: 6}
		if static && !cfg.SeedFromFacts("forward-only", minDistance) {
			t.Fatal("SeedFromFacts rejected forward-only")
		}
		k := seedKernel()
		for _, s := range adaptive.RunParallel(k, cfg).Samples {
			if s.Engine == adaptive.EngineSpecCross {
				spec++
			}
			if s.Misspeculated {
				misspec++
			}
		}
		if got := k.Checksum(); got != want {
			t.Fatalf("static=%v checksum %x != sequential %x", static, got, want)
		}
		return spec, misspec
	}

	if spec, misspec := run(false); spec == 0 || misspec == 0 {
		t.Errorf("cold run: %d speculative windows, %d misspeculated; want both > 0", spec, misspec)
	}
	if spec, misspec := run(true); spec == 0 || misspec != 0 {
		t.Errorf("seeded run: %d speculative windows, %d misspeculated; want > 0 and none (the proven bound %d gates it)",
			spec, misspec, minDistance)
	}
}
