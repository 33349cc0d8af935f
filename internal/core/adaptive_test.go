package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/transform/slice"
)

func TestAdaptiveMatchesSequentialFig13(t *testing.T) {
	c := compileT(t, fig13)
	want := seqChecksum(t, c)
	res, err := c.Run(c.Regions[0], Plan{Facts: c.Facts()[0]}, Options{Engine: "adaptive", Workers: 3, Window: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Env.Checksum(); got != want {
		t.Fatalf("adaptive checksum %x != sequential %x", got, want)
	}
	stats := res.Adaptive.Stats
	if stats.Windows != 4 {
		t.Fatalf("windows = %d, want 4 (24 epochs / window 6)", stats.Windows)
	}
	// Run seeds the controller from the stencil's profile, whose minimum
	// distance reaches 3 workers: it starts speculating, inside that
	// distance, so no window misspeculates (which also keeps this test
	// exact under the race detector).
	if stats.EngineWindows[adaptive.EngineSpecCross] == 0 || stats.Spec.Misspeculations != 0 {
		t.Fatalf("seeded controller: engine windows %v, misspeculations %d; want speculation without misspeculation",
			stats.EngineWindows, stats.Spec.Misspeculations)
	}
}

func TestAdaptiveMatchesSequentialCG(t *testing.T) {
	c := compileT(t, cgLike)
	want := seqChecksum(t, c)
	idx := len(c.Regions) - 1
	// Run seeds the controller from the profiled distance, so speculative
	// windows stay inside it (CG's tasks conflict across epochs, and
	// unbounded speculation over them races by design, §4.2.1).
	res, err := c.Run(c.Regions[idx], Plan{Facts: c.Facts()[idx]}, Options{Engine: "adaptive", Workers: 4, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Env.Checksum(); got != want {
		t.Fatalf("adaptive checksum %x != sequential %x", got, want)
	}
	if res.Adaptive.Stats.Windows == 0 {
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
	_, err := c.Run(c.Regions[0], Plan{Facts: c.Facts()[0]}, Options{Engine: "adaptive", Workers: 2})
	if !errors.Is(err, slice.ErrWorkerState) {
		t.Fatalf("err = %v, want slice.ErrWorkerState", err)
	}
}

// TestAdaptiveRunsConditional: the branch in conditional.lnl's first loop
// tests W, which its second loop writes, but no address depends on it, so
// the region's slices exist and adaptive reproduces the sequential result.
func TestAdaptiveRunsConditional(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "conditional.lnl"))
	if err != nil {
		t.Fatal(err)
	}
	c := compileT(t, string(src))
	want := seqChecksum(t, c)
	idx := len(c.Regions) - 1
	for _, window := range []int{0, 3} {
		res, err := c.Run(c.Regions[idx], Plan{Facts: c.Facts()[idx]}, Options{Engine: "adaptive", Workers: 2, Window: window})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Env.Checksum(); got != want {
			t.Fatalf("window %d: adaptive checksum %x != sequential %x", window, got, want)
		}
		if res.Adaptive.Stats.EngineWindows[adaptive.EngineDomore] == 0 {
			t.Fatalf("window %d: no DOMORE window ran (%v)", window, res.Adaptive.Stats.EngineWindows)
		}
	}
}
