package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/speccross"
)

// TestAdaptiveNearGuardedEngines is the in-process form of the compiled
// regions' adaptive claim: on strided.lnl and conditional.lnl, Run's
// adaptive mode takes at most 1.5× the faster of its domore and speccross
// modes, each best of seven on 2 workers and handed the same cached
// profile. Each region fits in one adaptive window, which goes through the
// seeded engine's own guard, so it costs what that engine's Run costs.
// Timing under the race detector means nothing, and a disturbed machine
// can miss once, so the test retries.
func TestAdaptiveNearGuardedEngines(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("timings under the race detector are not the engines'")
	}
	for _, name := range []string{"strided.lnl", "conditional.lnl"} {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			c := compileT(t, string(src))
			want := seqChecksum(t, c)
			idx := len(c.Regions) - 1
			region := c.Regions[idx]
			prof, err := c.ProfileRegion(region, SignatureKind)
			if err != nil {
				t.Fatal(err)
			}
			plan := Plan{Facts: c.Facts()[idx], Profile: func() (speccross.ProfileResult, error) { return prof, nil }}
			best := func(engine string) time.Duration {
				b := time.Duration(1 << 62)
				for range 7 {
					t0 := time.Now()
					res, err := c.Run(region, plan, Options{Engine: engine, Workers: 2})
					d := time.Since(t0)
					if err != nil {
						t.Fatalf("%s: %v", engine, err)
					}
					if got := res.Env.Checksum(); got != want {
						t.Fatalf("%s checksum %x != sequential %x", engine, got, want)
					}
					b = min(b, d)
				}
				return b
			}
			var a, d, s time.Duration
			for attempt := 0; attempt < 5; attempt++ {
				a, d, s = best("adaptive"), best("domore"), best("speccross")
				if float64(a) <= 1.5*float64(min(d, s)) {
					t.Logf("adaptive %v, domore %v, speccross %v", a, d, s)
					return
				}
			}
			t.Fatalf("adaptive took %v, over 1.5× the faster of domore %v and speccross %v", a, d, s)
		})
	}
}
