package core

import (
	"errors"
	"testing"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/transform/speccrossgen"
)

func TestAdaptiveMatchesSequentialFig13(t *testing.T) {
	c := compileT(t, fig13)
	want := seqChecksum(t, c)
	res, err := c.RunAdaptive(c.Regions[0], adaptive.Config{Workers: 3, Window: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Env.Checksum(); got != want {
		t.Fatalf("adaptive checksum %x != sequential %x", got, want)
	}
	if res.Stats.Windows != 4 {
		t.Fatalf("windows = %d, want 4 (24 epochs / window 6)", res.Stats.Windows)
	}
	// The stencil's manifest-dependence rate is high throughout, so the
	// default policy must keep the DOMORE engine and never speculate (which
	// also keeps this test exact under the race detector).
	if res.Stats.EngineWindows[adaptive.EngineSpecCross] != 0 {
		t.Fatalf("policy speculated on a high-rate region: %v", res.Stats.EngineWindows)
	}
	if res.Stats.Domore.SyncConditions == 0 {
		t.Fatal("expected dynamic synchronization conditions")
	}
}

func TestAdaptiveMatchesSequentialCG(t *testing.T) {
	c := compileT(t, cgLike)
	want := seqChecksum(t, c)
	region := c.Regions[len(c.Regions)-1]
	cfg := adaptive.Config{Workers: 4, Window: 4}
	if raceflag.Enabled {
		// CG's tasks conflict across epochs, so unbounded speculative windows
		// race by design until the checker rolls them back (§4.2.1). Under
		// the detector, gate them with the profiled distance, as a daemon
		// request does; the controller still runs every window.
		prof, err := c.ProfileRegion(region, SignatureKind)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SeedFromProfile(prof.MinDistance, cfg.Workers)
	}
	res, err := c.RunAdaptive(region, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Env.Checksum(); got != want {
		t.Fatalf("adaptive checksum %x != sequential %x", got, want)
	}
	if res.Stats.Windows == 0 {
		t.Fatal("no windows executed")
	}
}

func TestAdaptiveRejectsValueDependentAddrs(t *testing.T) {
	c := compileT(t, `func main() {
		var IDX[8], C[16]
		for t = 0 .. 3 {
			parfor i = 0 .. 8 { IDX[i] = IDX[i] + 1 }
			parfor j = 0 .. 8 { C[IDX[j]] = C[IDX[j]] + j }
		}
	}`)
	_, err := c.RunAdaptive(c.Regions[0], adaptive.Config{Workers: 2})
	if !errors.Is(err, speccrossgen.ErrAddrDependsOnParallel) {
		t.Fatalf("err = %v, want ErrAddrDependsOnParallel", err)
	}
}
