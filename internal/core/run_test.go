package core

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"crossinv/internal/analysis/verify"
	"crossinv/internal/ir"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/transform/mtcg"
)

// detDomoreStats, detSpecStats and detStats hold the Stats fields that are
// a function of the program and the options alone: no stall, task or
// checker counters, which depend on how threads interleave.
type detDomoreStats struct{ Iterations, Dispatches, SyncConditions, Dependences, AddrChecks int64 }

type detSpecStats struct{ Epochs, Checkpoints, Misspeculations, ReexecutedEpochs, DeltaCheckpoints, DeltaCells int64 }

type detStats struct {
	Engine        string
	BarrierWaits  int64
	Domore        detDomoreStats
	Spec          detSpecStats
	Windows       int
	Switches      int
	EngineWindows [adaptive.NumEngines]int
}

func detDomore(s domore.Stats) detDomoreStats {
	return detDomoreStats{s.Iterations, s.Dispatches, s.SyncConditions, s.Dependences, s.AddrChecks}
}

func detSpec(s speccross.Stats) detSpecStats {
	return detSpecStats{s.Epochs, s.Checkpoints, s.Misspeculations, s.ReexecutedEpochs, s.DeltaCheckpoints, s.DeltaCells}
}

// det extracts r's deterministic Stats. Adaptive runs keep only their
// window count unless pinned is set: an unpinned controller reads checker
// pressure, which is timing.
func det(r Result, pinned bool) detStats {
	d := detStats{Engine: r.Engine}
	switch {
	case r.Barrier != nil:
		_, d.BarrierWaits = r.Barrier.Barrier.Stats()
	case r.DOMORE != nil:
		d.Domore = detDomore(r.DOMORE.Stats)
	case r.SpecCross != nil:
		d.Spec = detSpec(r.SpecCross.Stats)
	case r.Adaptive != nil:
		d.Windows = r.Adaptive.Stats.Windows
		if pinned {
			d.Switches = r.Adaptive.Stats.Switches
			d.EngineWindows = r.Adaptive.Stats.EngineWindows
			d.Domore = detDomore(r.Adaptive.Stats.Domore)
			d.Spec = detSpec(r.Adaptive.Stats.Spec)
		}
	}
	return d
}

// forward runs region under engine through its frozen forwarder, configured
// as Run documents it configures that engine. It reports whether an
// adaptive controller was pinned by its seed.
func forward(c *Compiled, region *ir.Loop, engine string, facts RegionFacts, prof speccross.ProfileResult, workers int) (Result, bool, error) {
	res := Result{Engine: engine}
	var err error
	switch engine {
	case "barrier":
		res.Barrier, err = c.RunBarriers(region, workers)
	case "domore":
		par, perr := c.PlanDOMORE(region)
		if perr != nil {
			return res, false, perr
		}
		res.DOMORE, err = c.RunDOMOREPlanned(par, region, domore.Options{Workers: workers})
	case "speccross":
		res.SpecCross, err = c.RunSpecCrossProfiled(region, speccross.Config{Workers: workers}, prof)
	case "adaptive":
		cfg := adaptive.Config{Workers: workers}
		cfg.SeedFromFacts(facts.XDepClass, facts.XDepMinDistance)
		if facts.XDepClass != "none" {
			cfg.SeedFromProfile(prof.MinDistance, workers)
		}
		res.Adaptive, err = c.RunAdaptive(region, cfg)
		return res, cfg.Policy != nil, err
	}
	return res, false, err
}

// TestRunMatchesForwarders runs every corpus program, fig13 and cgLike
// under each engine through Run, and requires the sequential result and the
// same deterministic Stats as the matching frozen forwarder configured the
// way Run documents — auto against the forwarder of the engine it chose.
func TestRunMatchesForwarders(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.lnl"))
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]string{"fig13": fig13, "cgLike": cgLike}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(file)] = string(src)
	}
	const workers = 3
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			c := compileT(t, src)
			want := seqChecksum(t, c)
			idx := len(c.Regions) - 1
			region, facts := c.Regions[idx], c.Facts()[idx]
			prof, err := c.ProfileRegion(region, SignatureKind)
			if err != nil {
				t.Fatal(err)
			}
			for _, engine := range []string{"barrier", "domore", "speccross", "adaptive", "auto"} {
				t.Run(engine, func(t *testing.T) {
					got, err := c.Run(region, Plan{Facts: facts}, Options{Engine: engine, Workers: workers})
					ref, pinned, refErr := forward(c, region, got.Engine, facts, prof, workers)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("Run err = %v, forwarder err = %v", err, refErr)
					}
					if err != nil {
						t.Skipf("%s inapplicable: %v", got.Engine, err)
					}
					if sum := got.Env.Checksum(); sum != want {
						t.Fatalf("%s checksum %x != sequential %x", got.Engine, sum, want)
					}
					if g, w := det(got, pinned), det(ref, pinned); g != w {
						t.Fatalf("Run stats %+v != forwarder stats %+v", g, w)
					}
				})
			}
		})
	}
}

// noneSrc writes a disjoint block of A in every invocation: xdep proves it
// free of cross-invocation dependences (class none).
const noneSrc = `
func main() {
  var A[96]
  for t = 0 .. 12 {
    parfor i = 0 .. 8 { A[t*8 + i] = t * 5 + i }
  }
}
`

// TestRunTakesProfileOnlyWhenNeeded pins two of Run's policies: adaptive on
// a class-none region seeds from the facts alone and never calls the
// profile supplier, and auto runs domore exactly when the profile says
// speculation is unprofitable.
func TestRunTakesProfileOnlyWhenNeeded(t *testing.T) {
	c := compileT(t, noneSrc)
	want := seqChecksum(t, c)
	region, facts := c.Regions[0], c.Facts()[0]
	if facts.XDepClass != "none" {
		t.Fatalf("xdep class %q, want none", facts.XDepClass)
	}
	const workers = 4
	profiles := 0
	supply := func(prof speccross.ProfileResult) Plan {
		return Plan{Facts: facts, Profile: func() (speccross.ProfileResult, error) {
			profiles++
			return prof, nil
		}}
	}

	res, err := c.Run(region, supply(speccross.ProfileResult{MinDistance: 1}), Options{Engine: "adaptive", Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if profiles != 0 {
		t.Fatalf("adaptive on a class-none region took %d profiles, want 0", profiles)
	}
	if res.Env.Checksum() != want || res.Adaptive.Stats.EngineWindows[adaptive.EngineSpecCross] != res.Adaptive.Stats.Windows {
		t.Fatalf("class none must pin speculation: checksum %x (want %x), windows %v",
			res.Env.Checksum(), want, res.Adaptive.Stats.EngineWindows)
	}

	for _, dist := range []int64{1, workers - 1, workers, 2 * workers, speccross.NoConflict} {
		prof := speccross.ProfileResult{MinDistance: dist}
		_, profitable := prof.Recommended(workers)
		profiles = 0
		res, err := c.Run(region, supply(prof), Options{Engine: "auto", Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if (res.Engine == "domore") != !profitable || res.Engine != Choose(prof, workers) {
			t.Errorf("distance %d: auto ran %s, profitable = %v", dist, res.Engine, profitable)
		}
		if profiles != 1 {
			t.Errorf("distance %d: auto took %d profiles, want 1", dist, profiles)
		}
		if res.Env.Checksum() != want {
			t.Errorf("distance %d: auto checksum %x != sequential %x", dist, res.Env.Checksum(), want)
		}
	}
}

// TestRunPlansDOMOREOncePerRegion: Lint prepares each region's plan once,
// and PlanDOMORE callers, concurrent ones included, and runs under every
// engine use the very transform and signature plan Lint verified.
func TestRunPlansDOMOREOncePerRegion(t *testing.T) {
	c := compileT(t, cgLike)
	region := c.Regions[len(c.Regions)-1]
	if list := c.Lint(); len(list) != 0 {
		t.Fatalf("lint:\n%s", list.Text())
	}
	v, ok := c.prepared.Load(region)
	if !ok {
		t.Fatal("Lint left no prepared plan")
	}
	linted := v.(*prepared)
	if linted.par == nil || linted.sig == nil {
		t.Fatalf("Lint prepared par %p, sig %p", linted.par, linted.sig)
	}
	pars := make([]*mtcg.Parallelized, 8)
	var wg sync.WaitGroup
	for i := range pars {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if pars[i], err = c.PlanDOMORE(region); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i, par := range pars {
		if par != linted.par {
			t.Fatalf("PlanDOMORE caller %d got %p, Lint verified %p", i, par, linted.par)
		}
	}
	for _, engine := range []string{"barrier", "domore", "speccross", "adaptive", "auto"} {
		res, err := c.Run(region, Plan{}, Options{Engine: engine, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.DOMORE != nil && res.DOMORE.Par != linted.par {
			t.Fatalf("%s ran transform %p, Lint verified %p", engine, res.DOMORE.Par, linted.par)
		}
		if pp := c.prepare(region); pp != linted || pp.par != linted.par || pp.sig != linted.sig {
			t.Fatalf("%s left region plan %p (par %p, sig %p), Lint prepared %p (par %p, sig %p)",
				engine, pp, pp.par, pp.sig, linted, linted.par, linted.sig)
		}
	}
}

// TestRunGatesOnPreparedSignaturePlan is the mutate-prepared case: a
// signature plan corrupted after a clean Lint is what every run built on
// speccrossgen reads, so each of them refuses the region.
func TestRunGatesOnPreparedSignaturePlan(t *testing.T) {
	c := compileT(t, fig13)
	region := c.Regions[len(c.Regions)-1]
	if list := c.Lint(); len(list) != 0 {
		t.Fatalf("lint:\n%s", list.Text())
	}
	if _, ok := verify.CorruptDropInstrumentation(c.Prog, c.prepare(region).sig); !ok {
		t.Fatal("nothing to corrupt")
	}
	// specPlan(false) declares no conflict, so auto runs speccross.
	for _, engine := range []string{"barrier", "speccross", "adaptive", "auto"} {
		res, err := c.Run(region, specPlan(false), Options{Engine: engine, Workers: 2})
		if err == nil || !strings.Contains(err.Error(), "failed verification") {
			t.Errorf("%s ran (as %s) over a corrupted signature plan (err = %v)", engine, res.Engine, err)
		}
	}
}
