// Command chaos is the differential fuzzing and fault-injection driver:
// it runs seeded random workloads under all five engines (barrier,
// DOMORE, sharded DOMORE, SPECCROSS, adaptive) and fails if any engine's final memory or
// Stats invariants diverge from the sequential oracle.
//
// Modes:
//
//	chaos -n 500                      sweep 500 seeds with all faults injected
//	chaos -seed 42                    re-run one seed (full replay token)
//	chaos -replay case.json           re-run a shrunk artifact or bare spec
//	chaos -mutate drop-addr -shrink   inject an engine-contract bug; exit 0
//	                                  only if the harness catches and shrinks it
//
// On failure (and with -shrink) the failing case is reduced and written
// to -out as a replayable JSON artifact.
package main

import (
	"flag"
	"fmt"
	"os"

	"crossinv/internal/chaos"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		n       = flag.Int("n", 200, "number of random seeds to sweep")
		seed    = flag.Int64("seed", -1, "run exactly this seed instead of a sweep")
		first   = flag.Int64("first", 1, "first seed of the sweep")
		replay  = flag.String("replay", "", "replay a failing-case JSON (artifact or bare spec)")
		workers = flag.Int("workers", 4, "worker threads per engine")
		ckpt    = flag.Int("checkpoint-every", 3, "SPECCROSS epochs per checkpoint segment")
		window  = flag.Int("window", 4, "adaptive epochs per monitoring window")
		faults  = flag.String("faults", "all", "fault plan: all, none, or a csv of queue-full, delay, sig-conflict, panic, timeout, torn-state, torn-delta, shard-skew, dirty-runtime")
		mutate  = flag.String("mutate", "", "inject an engine-contract bug (drop-addr, drop-sig-write, skip-restore, skip-delta-restore, widen-static, stale-shard-claim, stale-runtime, skip-inline-shard, release-keeps-version) and require the harness to catch it")
		shrink  = flag.Bool("shrink", false, "shrink failing cases and write artifacts to -out")
		out     = flag.String("out", "chaos-artifacts", "artifact output directory")
		verbose = flag.Bool("v", false, "log every case")
	)
	flag.Parse()
	base := chaos.Options{Workers: *workers, CheckpointEvery: *ckpt, Window: *window}

	if *replay != "" {
		return replayArtifact(*replay, *verbose)
	}
	if *mutate != "" {
		return mutationRun(*mutate, *faults, base, *shrink, *out)
	}

	seeds := sweepSeeds(*seed, *first, *n)
	failedSeeds := 0
	for _, s := range seeds {
		plan, err := chaos.ParseFaults(*faults, s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		opts := base
		opts.Faults = plan
		fails := chaos.RunSeed(s, opts)
		if *verbose || len(fails) > 0 {
			fmt.Printf("seed %d: %d failures (faults: %s)\n", s, len(fails), plan)
		}
		if len(fails) == 0 {
			continue
		}
		failedSeeds++
		for _, f := range fails {
			fmt.Printf("  %s\n", f)
		}
		if *shrink {
			shrinkAndWrite(chaos.Generate(s), s, opts, *out)
		}
	}
	if failedSeeds > 0 {
		fmt.Printf("FAIL: %d of %d seeds diverged from the sequential oracle\n", failedSeeds, len(seeds))
		return 1
	}
	fmt.Printf("ok: %d seeds × %d engines × {untraced,traced} matched the sequential oracle\n",
		len(seeds), len(chaos.Engines))
	return 0
}

func sweepSeeds(one, first int64, n int) []uint64 {
	if one >= 0 {
		return []uint64{uint64(one)}
	}
	seeds := make([]uint64, 0, n)
	for s := first; s < first+int64(n); s++ {
		seeds = append(seeds, uint64(s))
	}
	return seeds
}

// mutationRun is the self-test of the harness: with a deliberately broken
// engine contract the differential run MUST fail; exit 0 means the bug
// was caught (and, with -shrink, reduced to a replayable artifact).
func mutationRun(mutate, faults string, base chaos.Options, shrink bool, out string) int {
	mut, err := chaos.ParseMutation(mutate)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	opts := base
	opts.Mutation = mut
	// The default fault plan for a mutation is the one that drives its
	// broken path (e.g. skip-restore needs a misspeculation); an explicit
	// -faults overrides it.
	opts.Faults = mut.Faults()
	explicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "faults" {
			explicit = true
		}
	})
	if explicit {
		plan, err := chaos.ParseFaults(faults, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		opts.Faults = plan
	}

	spec := mut.Catcher()
	spec.Name = "chaos-mutation-" + string(mut)
	for attempt := 0; attempt < 20; attempt++ {
		for _, traced := range []bool{false, true} {
			o := opts
			o.Traced = traced
			fails := chaos.RunSpec(spec, o)
			if len(fails) == 0 {
				continue
			}
			fmt.Printf("mutation %s caught (attempt %d, traced=%v):\n", mut, attempt+1, traced)
			for _, f := range fails {
				fmt.Printf("  %s\n", f)
			}
			if shrink {
				if !shrinkAndWrite(spec, 0, opts, out) {
					return 1
				}
			}
			return 0
		}
	}
	fmt.Printf("FAIL: mutation %s was NOT detected — the harness missed an injected engine bug\n", mut)
	return 1
}

func shrinkAndWrite(spec *chaos.Spec, seed uint64, opts chaos.Options, out string) bool {
	shrunk, fails := chaos.Shrink(spec, opts, 3)
	if shrunk == nil {
		fmt.Printf("  (failure did not reproduce for the shrinker; artifact not written)\n")
		return false
	}
	path, err := chaos.NewArtifact(seed, opts, shrunk, fails).WriteFile(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	fmt.Printf("  shrunk to %d epochs / %d tasks → %s\n", shrunk.NumEpochs(), shrunk.TotalTasks(), path)
	return true
}

func replayArtifact(path string, verbose bool) int {
	art, err := chaos.LoadArtifact(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	opts, err := art.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if verbose {
		fmt.Printf("replaying %s: %d epochs, %d tasks, faults=%s mutation=%q\n",
			path, art.Spec.NumEpochs(), art.Spec.TotalTasks(), art.Faults, art.Mutation)
	}
	for attempt := 0; attempt < 10; attempt++ {
		for _, traced := range []bool{false, true} {
			o := opts
			o.Traced = traced
			if fails := chaos.RunSpec(art.Spec, o); len(fails) > 0 {
				fmt.Printf("reproduced (attempt %d, traced=%v):\n", attempt+1, traced)
				for _, f := range fails {
					fmt.Printf("  %s\n", f)
				}
				return 1
			}
		}
	}
	fmt.Printf("no divergence in 10 replay attempts\n")
	return 0
}
