package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"crossinv/internal/ir/interp"
	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/transform/speccrossgen"
)

// TestCorpus runs every loop-nest-language program in testdata through the
// whole pipeline under all execution strategies and checks bit-exact
// equivalence with sequential execution. The corpus covers disjoint and
// chained dataflow, strided subscripts, nested conditionals, scalar-derived
// bounds, and negative-value arithmetic.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.lnl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("corpus has %d programs, expected at least 6", len(files))
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(string(src))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if len(c.Regions) == 0 {
				t.Fatal("no candidate region detected")
			}
			want := seqChecksum(t, c)
			region := c.Regions[len(c.Regions)-1]

			if res, err := c.Run(region, Plan{}, Options{Engine: "barrier", Workers: 4}); err != nil {
				t.Errorf("barrier: %v", err)
			} else if got := res.Env.Checksum(); got != want {
				t.Errorf("barrier checksum %x != sequential %x", got, want)
			}

			if res, err := c.Run(region, Plan{}, Options{Engine: "domore", Workers: 4}); err != nil {
				t.Logf("domore inapplicable: %v", err)
			} else if got := res.Env.Checksum(); got != want {
				t.Errorf("domore checksum %x != sequential %x", got, want)
			}

			// Under the race detector, profile first so speculation is
			// gated (unbounded speculation over conflicts is racy by
			// design, §4.2.1).
			res, err := c.Run(region, specPlan(raceflag.Enabled), Options{Engine: "speccross", Workers: 4})
			if err != nil {
				t.Errorf("speccross: %v", err)
			} else if got := res.Env.Checksum(); got != want {
				t.Errorf("speccross checksum %x != sequential %x", got, want)
			}
		})
	}
}

// TestCompiledRegionsRollBackThroughCellImage runs every region of the
// corpus and of examples/compiler under speccross.RunParallel with a forced
// misspeculation and segments of two epochs. Each must end at the
// sequential checksum after rolling back through its cell image, the
// program's flat memory, and on some region the commits must refresh fewer
// cells than a whole image per segment: the cell map makes them O(dirty).
// A region that drops the highest dirty cell of every commit and rollback
// must make the check fail, which shows it fires.
func TestCompiledRegionsRollBackThroughCellImage(t *testing.T) {
	var files []string
	for _, pat := range []string{filepath.Join("testdata", "*.lnl"), filepath.Join("..", "..", "examples", "compiler", "*.lnl")} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 8 {
		t.Fatalf("found %d programs, expected the corpus and the examples", len(files))
	}
	fails, belowWhole := rollBackRegions(t, files, func(r *speccrossgen.Region) speccross.Workload { return r })
	for _, f := range fails {
		t.Error(f)
	}
	if !belowWhole {
		t.Error("no region's commits refreshed fewer cells than a whole image per segment")
	}
	fails, _ = rollBackRegions(t, files, func(r *speccrossgen.Region) speccross.Workload { return skipDirtyCell{r} })
	if len(fails) == 0 {
		t.Error("regions that skip a dirty cell at every commit and rollback all passed")
	}
	t.Logf("skipping a dirty cell, %d regions diverged", len(fails))
}

// skipDirtyCell is a region with the SPECCROSS engine's skip-dirty-cell
// seam switched on.
type skipDirtyCell struct{ *speccrossgen.Region }

func (skipDirtyCell) SkipDirtyCell() bool { return true }

// rollBackRegions runs every region of every program in files, as wrap
// presents it, under speccross.RunParallel with a misspeculation forced
// half way, and returns what went wrong, and whether some region's commits
// refreshed fewer cells than a whole image per segment. Speculation is
// bounded by the region's profiled distance, so only the forced
// misspeculation rolls back.
func rollBackRegions(t *testing.T, files []string, wrap func(*speccrossgen.Region) speccross.Workload) (fails []string, belowWhole bool) {
	t.Helper()
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		want := seqChecksum(t, c)
		for i, region := range c.Regions {
			prof, err := c.ProfileRegion(region, signature.Exact)
			if err != nil {
				t.Fatalf("%s region %d: profile: %v", file, i, err)
			}
			cfg := speccross.Config{Workers: 2, SigKind: signature.Exact, CheckpointEvery: 2, SpecDistance: prof.MinDistance}
			if prof.MinDistance == speccross.NoConflict {
				cfg.SpecDistance = 0
			}
			var (
				st    speccross.Stats
				cells int
				env   *interp.Env
				done  struct{}
			)
			_, err = execute(c, region, &done, &env, func(e *interp.Env) error {
				r, err := c.speculative(region, e, cfg.Workers)
				if err != nil {
					return err
				}
				cfg.ForceMisspecEpoch = max(1, r.Epochs()/2)
				cells = r.StateLen()
				st = speccross.RunParallel(wrap(r), cfg)
				return nil
			})
			where := fmt.Sprintf("%s region %d", filepath.Base(file), i)
			switch {
			case err != nil:
				fails = append(fails, fmt.Sprintf("%s: %v", where, err))
			case env.Checksum() != want:
				fails = append(fails, fmt.Sprintf("%s: checksum %x, sequential %x", where, env.Checksum(), want))
			case st.Misspeculations < 1:
				fails = append(fails, fmt.Sprintf("%s: %d rollbacks through the cell image, want the forced one", where, st.Misspeculations))
			}
			if st.DeltaCells < st.Checkpoints*int64(cells) {
				belowWhole = true
			}
		}
	}
	return fails, belowWhole
}
