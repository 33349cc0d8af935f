package main

import (
	"testing"

	"crossinv/internal/core"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
)

func sources(ps []program) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.source
	}
	return out
}

func TestCorpusDeterministic(t *testing.T) {
	a := sources(corpus(7, 1, regionShapes, 10))
	b := sources(corpus(7, 1, regionShapes, 10))
	c := sources(corpus(8, 1, regionShapes, 10))
	d := sources(corpus(7, 2, regionShapes, 10))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("program %d differs between two runs of one seed", i)
		}
		if a[i] == c[i] {
			t.Errorf("program %d is identical under seeds 7 and 8", i)
		}
		if a[i] == d[i] {
			t.Errorf("program %d is identical under salts 1 and 2", i)
		}
	}
}

func TestStreamNeverRepeats(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range corpus(3, 1, daemonShapes, 64) {
		seen[core.SourceHash(p.source)] = true
	}
	for lane := uint64(0); lane < 3; lane++ {
		s := newStream(3, lane, daemonShapes)
		for i := 0; i < 2000; i++ {
			h := core.SourceHash(s.program().source)
			if seen[h] {
				t.Fatalf("lane %d program %d repeats a source hash", lane, i)
			}
			seen[h] = true
		}
	}
	// Same seed and lane replay the same stream.
	x, y := newStream(3, 1, daemonShapes), newStream(3, 1, daemonShapes)
	for i := 0; i < 50; i++ {
		if x.program().source != y.program().source {
			t.Fatalf("stream program %d differs between two runs of one seed", i)
		}
	}
}

// TestGeneratedProgramsRunEverywhere compiles programs of every template
// and both size classes and runs them under every mode a workload uses.
func TestGeneratedProgramsRunEverywhere(t *testing.T) {
	progs := append(corpus(11, 1, regionShapes, 2*int(numTemplates)), corpus(12, 2, daemonShapes, int(numTemplates))...)
	s := newStream(13, 0, daemonShapes)
	for i := 0; i < int(numTemplates); i++ {
		progs = append(progs, s.program())
	}
	const workers = 2
	for _, p := range progs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			c, err := core.Compile(p.source)
			if err != nil {
				t.Fatalf("compile: %v\n%s", err, p.source)
			}
			if diags := c.Lint(); diags.HasErrors() {
				t.Fatalf("lint: %s", diags.Errors().Text())
			}
			if len(c.Regions) == 0 {
				t.Fatal("no candidate region")
			}
			want, err := c.Oracle()
			if err != nil {
				t.Fatal(err)
			}
			region := c.Regions[len(c.Regions)-1]
			check := func(mode string, sum uint64, err error) {
				t.Helper()
				if err != nil {
					t.Errorf("%s: %v", mode, err)
				} else if sum != want {
					t.Errorf("%s: checksum %x, oracle %x", mode, sum, want)
				}
			}
			par, err := c.PlanDOMORE(region)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			prof, err := c.ProfileRegion(region, core.SignatureKind)
			if err != nil {
				t.Fatalf("profile: %v", err)
			}
			if r, err := c.RunBarriers(region, workers); err != nil {
				check("barrier", 0, err)
			} else {
				check("barrier", r.Env.Checksum(), nil)
			}
			if r, err := c.RunDOMOREPlanned(par, region, domore.Options{Workers: workers}); err != nil {
				check("domore", 0, err)
			} else {
				check("domore", r.Env.Checksum(), nil)
			}
			if r, err := c.RunDOMOREShardedPlanned(par, region, domore.Options{Workers: workers, Lanes: workers}); err != nil {
				check("domore-sharded", 0, err)
			} else {
				check("domore-sharded", r.Env.Checksum(), nil)
			}
			for _, misspec := range []int{0, 2} {
				cfg := speccross.Config{Workers: workers, ForceMisspecEpoch: misspec}
				if r, err := c.RunSpecCrossProfiled(region, cfg, prof); err != nil {
					check("speccross", 0, err)
				} else {
					check("speccross", r.Env.Checksum(), nil)
				}
			}
			acfg := adaptive.Config{Workers: workers}
			facts := c.Facts()[len(c.Regions)-1]
			acfg.SeedFromFacts(facts.XDepClass, facts.XDepMinDistance)
			if facts.XDepClass != "none" {
				acfg.SeedFromProfile(prof.MinDistance, workers)
			}
			if r, err := c.RunAdaptive(region, acfg); err != nil {
				check("adaptive", 0, err)
			} else {
				check("adaptive", r.Env.Checksum(), nil)
			}
			t.Logf("class %s dist %d profile min %d", facts.XDepClass, facts.XDepMinDistance, prof.MinDistance)
		})
	}
}
