package fluidanimate

import (
	"slices"
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

// TestEngineViewsShareOneDescription: DOMORE's ComputeAddr returns exactly
// the writes SPECCROSS's Run records, in the same order, for every phase and
// cell, and the read sets are RebuildGrid's every-cell scan and the
// neighbour phases' three planes per neighbour.
func TestEngineViewsShareOneDescription(t *testing.T) {
	f := New(1)
	sig := signature.New(signature.Exact)
	var buf []uint64
	for ph := 0; ph < NumPhases; ph++ {
		for c := 0; c < f.Cells; c++ {
			buf = f.ComputeAddr(ph, c, buf[:0])
			sig.Reset()
			sig.WriteLog = []uint64{}
			f.Run(ph, c, 0, sig)
			if !slices.Equal(buf, sig.WriteLog) {
				t.Fatalf("%s cell %d: ComputeAddr %v, Run writes %v", PhaseNames[ph], c, buf, sig.WriteLog)
			}
			reads := 0
			f.access(ph, c, func(uint64) { reads++ }, func(uint64) {})
			want := map[int]int{PhaseRebuild: f.Cells, PhaseDensities: 3 * len(f.neighbors(c, nil)),
				PhaseForces: 3 * len(f.neighbors(c, nil)), PhaseInitDensities: 1, PhaseDensities2: 1,
				PhaseCollisions: 2, PhaseAdvance: 2}[ph]
			if reads != want {
				t.Fatalf("%s cell %d: %d reads, want %d", PhaseNames[ph], c, reads, want)
			}
		}
	}
}

// TestCellImageRoundTrip: FLUIDANIMATE's cell view covers every array of
// its state in one fixed order. A run of cells that crosses array
// boundaries loads what the whole image holds there, and storing the
// whole image back over a scribbled state restores it exactly, int32
// arrays included.
func TestCellImageRoundTrip(t *testing.T) {
	f := New(1)
	f.Frames = 1
	f.RunSequential()
	want := f.Checksum()
	img := make([]int64, f.StateLen())
	f.LoadCells(0, img)
	lo := 7*f.P - 3 // the end of density, all of cellOf, the start of bucketData
	run := make([]int64, f.P+6)
	f.LoadCells(uint64(lo), run)
	if !slices.Equal(run, img[lo:lo+len(run)]) {
		t.Fatal("a run across array boundaries differs from the whole image")
	}
	scribble := slices.Clone(img)
	for i := range scribble {
		scribble[i] = int64(i%7) - 3
	}
	f.StoreCells(0, scribble)
	if f.Checksum() == want {
		t.Fatal("storing a scribbled image left the state as it was")
	}
	f.StoreCells(uint64(lo), run)
	f.StoreCells(0, img)
	if f.Checksum() != want {
		t.Fatal("storing the image back did not restore the state")
	}
}
