package fluidanimate

import (
	"testing"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
)

// newT builds an instance sized for the active detector: the race build
// runs 10–20× slower, so the frame count shrinks (structure unchanged).
func newT() *Fluid {
	f := New(1)
	if raceflag.Enabled && f.Frames > 10 {
		f.Frames = 10
	}
	return f
}

func golden(t *testing.T) uint64 {
	t.Helper()
	f := newT()
	f.RunSequential()
	return f.Checksum()
}

func TestSequentialDeterminism(t *testing.T) {
	if golden(t) != golden(t) {
		t.Fatal("sequential execution not deterministic")
	}
}

func TestParticlesConserved(t *testing.T) {
	f := newT()
	f.RunSequential()
	// After the final RebuildGrid-consistent frame, every particle belongs
	// to exactly one cell.
	seen := make([]bool, f.P)
	total := 0
	for c := 0; c < f.Cells; c++ {
		for _, p := range f.cell(c) {
			if seen[p] {
				t.Fatalf("particle %d in two buckets", p)
			}
			seen[p] = true
			total++
		}
	}
	if total != f.P {
		t.Fatalf("buckets hold %d particles, want %d", total, f.P)
	}
}

func TestBarrierMatchesSequential(t *testing.T) {
	want := golden(t)
	f := newT()
	speccross.RunBarriers(f, 4)
	if got := f.Checksum(); got != want {
		t.Fatalf("barrier checksum %x != sequential %x", got, want)
	}
}

func TestManualDOANYMatchesSequential(t *testing.T) {
	want := golden(t)
	f := newT()
	f.RunManualDOANY(4)
	if got := f.Checksum(); got != want {
		t.Fatalf("manual DOANY checksum %x != sequential %x (pair sums must commute)", got, want)
	}
}

func TestDomoreWithJoinMatchesSequential(t *testing.T) {
	want := golden(t)
	f := newT()
	stats := domore.Run(f, domore.Options{Workers: 3})
	if got := f.Checksum(); got != want {
		t.Fatalf("domore checksum %x != sequential %x", got, want)
	}
	if stats.Iterations != int64(f.Frames*NumPhases*f.Cells) {
		t.Fatalf("iterations = %d", stats.Iterations)
	}
}

func TestSpecCrossWithProfiledDistance(t *testing.T) {
	want := golden(t)
	prof := newT()
	pr := speccross.Profile(prof, signature.Exact, 4)
	if pr.MinDistance == speccross.NoConflict {
		t.Fatal("fluidanimate must have cross-invocation conflicts (Table 5.3)")
	}
	f := newT()
	cfg := speccross.Config{Workers: 4, CheckpointEvery: 64, SigKind: signature.Exact}
	if dist, profitable := pr.Recommended(cfg.Workers); profitable {
		cfg.SpecDistance = dist
	}
	stats := speccross.RunParallel(f, cfg)
	if got := f.Checksum(); got != want {
		t.Fatalf("speccross checksum %x != sequential %x", got, want)
	}
	if stats.Misspeculations != 0 {
		t.Errorf("misspeculations = %d with profiled gating", stats.Misspeculations)
	}
	t.Logf("profiled min distance: %d (per loop: %v)", pr.MinDistance, pr.PerLoop)
}

func TestEpochLabels(t *testing.T) {
	f := newT()
	if f.EpochLabel(0) != "ClearParticles" || f.EpochLabel(5) != "ComputeForces" {
		t.Fatalf("labels wrong: %q %q", f.EpochLabel(0), f.EpochLabel(5))
	}
}
