package core

import (
	"testing"
	"testing/quick"

	"crossinv/internal/ir"
	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
)

// runDOMORE is the cold DOMORE path: build and verify the plan, then run it.
func runDOMORE(c *Compiled, region *ir.Loop, opts domore.Options) (*DomoreResult, error) {
	par, err := c.PlanDOMORE(region)
	if err != nil {
		return nil, err
	}
	return c.RunDOMOREPlanned(par, region, opts)
}

// runDOMORESharded is runDOMORE on the sharded scheduler.
func runDOMORESharded(c *Compiled, region *ir.Loop, opts domore.Options) (*DomoreResult, error) {
	par, err := c.PlanDOMORE(region)
	if err != nil {
		return nil, err
	}
	return c.RunDOMOREShardedPlanned(par, region, opts)
}

// runSpecCross runs the region under SPECCROSS: gated by a fresh §4.4
// profile when profile is set, with unbounded speculation otherwise.
func runSpecCross(c *Compiled, region *ir.Loop, cfg speccross.Config, profile bool) (*SpecCrossResult, error) {
	prof := speccross.ProfileResult{MinDistance: speccross.NoConflict}
	if profile {
		var err error
		if prof, err = c.ProfileRegion(region, cfg.SigKind); err != nil {
			return nil, err
		}
	}
	return c.RunSpecCrossProfiled(region, cfg, prof)
}

// fig13 is the paper's motivating program (Fig 1.3): two parallel loops
// with cross-invocation stencil dependences under a timestep loop.
const fig13 = `
func main() {
  var A[64], B[65]
  parfor k = 0 .. 65 { B[k] = k * 7 % 13 }
  for t = 0 .. 12 {
    parfor i = 0 .. 64 { A[i] = B[i] + B[i+1] }
    parfor j = 1 .. 65 { B[j] = A[j-1] * 3 + A[j-1] % 11 }
  }
}
`

// cgLike mirrors the CG loop nest of Fig 3.1: outer loop computes bounds,
// inner loop updates C through an index array — runtime-dependent
// dependences, the DOMORE target.
const cgLike = `
func main() {
  var S[12], E[12], C[40], IDX[120]
  parfor p = 0 .. 12 { S[p] = p * 9 % 30 }
  parfor q = 0 .. 12 { E[q] = S[q] + 7 }
  parfor z = 0 .. 120 { IDX[z] = z * 17 % 40 }
  for i = 0 .. 12 {
    start = S[i]
    end = E[i]
    parfor j = start .. end {
      C[IDX[j]] = C[IDX[j]] * 3 + j + 1
    }
  }
}
`

func compileT(t *testing.T, src string) *Compiled {
	t.Helper()
	c, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func seqChecksum(t *testing.T, c *Compiled) uint64 {
	t.Helper()
	env, err := c.RunSequential()
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	return env.Checksum()
}

func TestRegionsDetected(t *testing.T) {
	c := compileT(t, fig13)
	if len(c.Regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(c.Regions))
	}
	if _, err := c.Region(5); err == nil {
		t.Fatal("out-of-range region lookup must fail")
	}
}

func TestBarriersMatchSequential(t *testing.T) {
	c := compileT(t, fig13)
	want := seqChecksum(t, c)
	res, err := c.RunBarriers(c.Regions[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Env.Checksum(); got != want {
		t.Fatalf("barrier checksum %x != sequential %x", got, want)
	}
	if _, waits := res.Barrier.Stats(); waits == 0 {
		t.Fatal("expected barrier waits")
	}
}

func TestSpecCrossMatchesSequential(t *testing.T) {
	c := compileT(t, fig13)
	want := seqChecksum(t, c)
	// Under the race detector, profile first: unbounded speculation over
	// the stencil's genuine conflicts races by design (§4.2.1).
	res, err := runSpecCross(c, c.Regions[0], speccross.Config{Workers: 4, CheckpointEvery: 6}, raceflag.Enabled)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Env.Checksum(); got != want {
		t.Fatalf("speccross checksum %x != sequential %x", got, want)
	}
	if res.Stats.Tasks == 0 {
		t.Fatal("no tasks executed")
	}
}

func TestSpecCrossWithProfilingMatchesSequential(t *testing.T) {
	c := compileT(t, fig13)
	want := seqChecksum(t, c)
	res, err := runSpecCross(c, c.Regions[0], speccross.Config{Workers: 2, CheckpointEvery: 6}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Env.Checksum(); got != want {
		t.Fatalf("speccross+profile checksum %x != sequential %x", got, want)
	}
	if res.Profile.Tasks == 0 {
		t.Fatal("profiling did not run")
	}
	// The stencil has real cross-invocation dependences; profiling must
	// observe conflicts and a finite minimum distance.
	if res.Profile.MinDistance == speccross.NoConflict {
		t.Fatal("profiling missed the stencil's cross-invocation conflicts")
	}
}

func TestDOMOREMatchesSequentialCG(t *testing.T) {
	c := compileT(t, cgLike)
	want := seqChecksum(t, c)
	// The CG region is the loop over i: the last detected region.
	region := c.Regions[len(c.Regions)-1]
	res, err := runDOMORE(c, region, domore.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Env.Checksum(); got != want {
		t.Fatalf("domore checksum %x != sequential %x", got, want)
	}
	if res.Stats.Iterations == 0 {
		t.Fatal("no iterations scheduled")
	}
	// The IDX pattern revisits C cells across invocations: dynamic
	// dependences must have been detected and synchronized.
	if res.Stats.SyncConditions == 0 {
		t.Fatal("expected dynamic synchronization conditions")
	}
}

func TestDOMOREShardedMatchesSequentialCG(t *testing.T) {
	c := compileT(t, cgLike)
	want := seqChecksum(t, c)
	region := c.Regions[len(c.Regions)-1]
	res, err := runDOMORESharded(c, region, domore.Options{Workers: 4, Lanes: 3, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Env.Checksum(); got != want {
		t.Fatalf("domore-sharded checksum %x != sequential %x", got, want)
	}
	if res.Stats.Iterations == 0 {
		t.Fatal("no iterations scheduled")
	}
	if res.Stats.SyncConditions == 0 {
		t.Fatal("expected dynamic synchronization conditions")
	}
	// The sharded scheduler must reproduce the flat scheduler's schedule.
	ref, err := runDOMORE(c, region, domore.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != ref.Stats.Iterations ||
		res.Stats.Dispatches != ref.Stats.Dispatches ||
		res.Stats.SyncConditions != ref.Stats.SyncConditions ||
		res.Stats.AddrChecks != ref.Stats.AddrChecks {
		t.Fatalf("sharded stats %+v diverge from flat %+v", res.Stats, ref.Stats)
	}
}

func TestDOMOREMatchesSequentialFig13(t *testing.T) {
	c := compileT(t, fig13)
	want := seqChecksum(t, c)
	res, err := runDOMORE(c, c.Regions[0], domore.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Env.Checksum(); got != want {
		t.Fatalf("domore checksum %x != sequential %x", got, want)
	}
}

func TestReportMentionsClassification(t *testing.T) {
	c := compileT(t, cgLike)
	rep := c.Report(c.Regions[len(c.Regions)-1])
	if rep == "" {
		t.Fatal("empty report")
	}
}

func TestCompileErrorsPropagate(t *testing.T) {
	if _, err := Compile("func broken {"); err == nil {
		t.Fatal("syntax error not reported")
	}
	if _, err := Compile("func f() { x = A[0] }"); err == nil {
		t.Fatal("semantic error not reported")
	}
}

// Property: across worker counts and strategies, all executions of fig13
// and cgLike agree with the sequential result.
func TestQuickAllStrategiesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("integration property test")
	}
	if raceflag.Enabled {
		t.Skip("unbounded speculation over conflicting stencils races by design (§4.2.1)")
	}
	prop := func(workers uint8, useCG bool, ckpt uint8) bool {
		src := fig13
		if useCG {
			src = cgLike
		}
		c, err := Compile(src)
		if err != nil {
			return false
		}
		env, err := c.RunSequential()
		if err != nil {
			return false
		}
		want := env.Checksum()
		region := c.Regions[len(c.Regions)-1]
		nw := int(workers%4) + 1

		b, err := c.RunBarriers(region, nw)
		if err != nil || b.Env.Checksum() != want {
			return false
		}
		s, err := runSpecCross(c, region, speccross.Config{Workers: nw, CheckpointEvery: int(ckpt%8) + 1}, false)
		if err != nil || s.Env.Checksum() != want {
			return false
		}
		d, err := runDOMORE(c, region, domore.Options{Workers: nw})
		if err != nil || d.Env.Checksum() != want {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
