package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"crossinv/internal/core"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/workloads"
)

// TestLNLProfileMatchesProfileRegion: for an LNL program the CLI reports,
// region by region, exactly the profile the engines gate on — the one
// Compiled.ProfileRegion takes on the state at region entry.
func TestLNLProfileMatchesProfileRegion(t *testing.T) {
	for _, name := range []string{"cg.lnl", "stencil.lnl"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("..", "..", "examples", "compiler", name)
			var got bytes.Buffer
			if err := profileLNL(&got, path); err != nil {
				t.Fatal(err)
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.Compile(string(src))
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			for i, region := range c.Regions {
				res, err := c.ProfileRegion(region, signature.Exact)
				if err != nil {
					t.Fatalf("region %d: %v", i, err)
				}
				report(&want, fmt.Sprintf("%s region %d", path, i), res)
			}
			if got.String() != want.String() {
				t.Errorf("profiler printed\n%s\nProfileRegion gives\n%s", got.String(), want.String())
			}
		})
	}
}

// TestSchedulerRatioRunsTheRegion: the ratio is taken over the whole
// region, run once in order, so the instance ends where RunSequential
// leaves it and every iteration is counted.
func TestSchedulerRatioRunsTheRegion(t *testing.T) {
	for _, name := range []string{"CG", "FLUIDANIMATE"} {
		e, err := workloads.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		want := e.Make(1)
		want.RunSequential()
		inst := e.Make(1)
		dw := inst.(domore.Workload)
		total := int64(0)
		for inv := 0; inv < dw.Invocations(); inv++ {
			total += int64(dw.Iterations(inv))
		}
		sched, work, iters := schedulerRatio(dw)
		if iters != total || sched <= 0 || work <= 0 {
			t.Errorf("%s: %d of %d iterations, scheduler %v, worker %v", name, iters, total, sched, work)
		}
		if inst.Checksum() != want.Checksum() {
			t.Errorf("%s: checksum %x after the measured run, sequential %x", name, inst.Checksum(), want.Checksum())
		}
	}
}
