package adaptive_test

import (
	"testing"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/epochal"
)

// The test kernel is a miniature of internal/workloads/phased: 96 epochs of
// 8 tasks in three phases — high manifest rate [0,32), low [32,64), high
// [64,96). Every planted conflict reuses an address written exactly two
// epochs earlier (shifted one slot, so round-robin never co-locates the
// pair on one worker), giving a fixed dependence distance of
// 2*tpe-1 = 15 tasks. With Spec.SpecDistance = 15 every conflicting pair is
// ordered by the speculative-range gate, so SPECCROSS windows are
// misspeculation-free and race-free while DOMORE still measures the rate.
const (
	tpe        = 8  // tasks per epoch
	testEpochs = 96 // three 32-epoch phases
	safeDist   = 2*tpe - 1
)

// buildKernel constructs the test workload. When closeHigh is set, the
// final high phase conflicts with the *previous* epoch instead (distance
// 7 < safeDist): under an unbounded speculative range those conflicts
// genuinely overlap and misspeculate — that variant is intentionally racy
// and only runs without the race detector (see internal/raceflag).
func buildKernel(closeHigh bool) *epochal.Kernel {
	const space = 1 << 12
	rng := workloads.NewRng(7)
	addr := make([]uint64, testEpochs*tpe)
	last := make(map[uint64]int)
	for e := 0; e < testEpochs; e++ {
		high := e < 32 || e >= 64
		inEpoch := make(map[uint64]bool, tpe)
		for t := 0; t < tpe; t++ {
			var a uint64
			reused := false
			lag := 2
			if closeHigh && e >= 64 {
				lag = 1
			}
			if e >= lag && e != 32 && e != 64 {
				rate := 30
				if high {
					rate = 750
				}
				if rng.Intn(1000) < rate {
					a = addr[(e-lag)*tpe+(t+1)%tpe]
					reused = !inEpoch[a]
				}
			}
			if !reused {
				for {
					a = uint64(rng.Intn(space))
					if inEpoch[a] {
						continue
					}
					if le, ok := last[a]; !ok || e-le > 4 {
						break
					}
				}
			}
			addr[e*tpe+t] = a
			last[a] = e
			inEpoch[a] = true
		}
	}
	k := &epochal.Kernel{
		BenchName: "adaptive-test",
		State:     make([]int64, space),
		NumEpochs: testEpochs,
		SeqCost:   10,
	}
	k.TasksOf = func(epoch int) int { return tpe }
	k.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		a := addr[epoch*tpe+task]
		return append(reads, a), append(writes, a)
	}
	k.Update = func(epoch, task int) {
		g := epoch*tpe + task
		a := addr[g]
		k.State[a] = k.State[a]*3 + int64(g) + 1
	}
	k.TaskCost = func(epoch, task int) int64 { return 100 }
	return k
}

func seqChecksum(closeHigh bool) uint64 {
	g := buildKernel(closeHigh)
	g.RunSequential()
	return g.Checksum()
}

// TestAdaptiveTracksPhases drives the full controller loop race-cleanly:
// DOMORE through the first high phase, handoff to SPECCROSS once the low
// phase drops the manifest rate, fallback to DOMORE when the injected
// misspeculation fires after the high phase returns.
func TestAdaptiveTracksPhases(t *testing.T) {
	want := seqChecksum(false)
	k := buildKernel(false)
	stats := adaptive.Run(k, adaptive.Config{
		Workers: 4,
		Window:  8,
		Spec: speccross.Config{
			SpecDistance: safeDist,
			// Fault-inject at epoch 66: the race-safe kernel's conflicts are
			// all range-gated, so this stands in for the misspeculation a
			// close-conflict phase causes (same stats path, no data race).
			ForceMisspecEpoch: 66,
		},
	})
	if got := k.Checksum(); got != want {
		t.Fatalf("adaptive checksum %x != sequential %x", got, want)
	}
	if wantWin := testEpochs / 8; stats.Windows != wantWin {
		t.Fatalf("Windows = %d, want %d", stats.Windows, wantWin)
	}
	sum := 0
	for _, n := range stats.EngineWindows {
		sum += n
	}
	if sum != stats.Windows {
		t.Fatalf("EngineWindows sums to %d, want %d", sum, stats.Windows)
	}
	if len(stats.Samples) != stats.Windows {
		t.Fatalf("len(Samples) = %d, want %d", len(stats.Samples), stats.Windows)
	}
	// Recompute switches from the sample log.
	switches := 0
	for i := 1; i < len(stats.Samples); i++ {
		if stats.Samples[i].Engine != stats.Samples[i-1].Engine {
			switches++
		}
	}
	if switches != stats.Switches {
		t.Fatalf("Switches = %d but samples show %d engine changes", stats.Switches, switches)
	}
	// The controller must actually use both engines and cross over in both
	// directions: domore → speccross on the low phase, speccross → domore on
	// the injected misspeculation.
	if stats.EngineWindows[adaptive.EngineDomore] == 0 || stats.EngineWindows[adaptive.EngineSpecCross] == 0 {
		t.Fatalf("controller never switched: engine windows %v", stats.EngineWindows)
	}
	if stats.Switches < 2 {
		t.Fatalf("Switches = %d, want at least one handoff each direction", stats.Switches)
	}
	if stats.Spec.Misspeculations != 1 {
		t.Fatalf("Misspeculations = %d, want exactly the injected one", stats.Spec.Misspeculations)
	}
	// The first window runs the default start engine and must observe the
	// high phase's manifest rate.
	first := stats.Samples[0]
	if first.Engine != adaptive.EngineDomore {
		t.Fatalf("first window engine = %v, want default start domore", first.Engine)
	}
	if first.ManifestRate < 0.3 {
		t.Fatalf("high-phase manifest rate = %.3f, want >= 0.3", first.ManifestRate)
	}
	// After the misspeculating window the policy must fall back to DOMORE
	// and hold it for the rest of the run (the final phase stays high-rate).
	saw := false
	for i, s := range stats.Samples {
		if s.Misspeculated {
			saw = true
			for _, rest := range stats.Samples[i+1:] {
				if rest.Engine != adaptive.EngineDomore {
					t.Fatalf("window [%d,%d) ran %v after misspeculation fallback", rest.StartEpoch, rest.EndEpoch, rest.Engine)
				}
			}
		}
	}
	if !saw {
		t.Fatal("no sample recorded the injected misspeculation")
	}
}

// TestAdaptiveFixedPolicies runs every engine end-to-end through the
// windowed execution path and checks the result is still the sequential
// one.
func TestAdaptiveFixedPolicies(t *testing.T) {
	want := seqChecksum(false)
	// "domore-sharded", a DOMORE scheduler's old name, pins DOMORE.
	for _, name := range []string{"domore", "speccross", "barrier", "domore-sharded"} {
		eng, ok := adaptive.ParseEngine(name)
		if !ok {
			t.Fatalf("ParseEngine(%q) failed", name)
		}
		t.Run(name, func(t *testing.T) {
			k := buildKernel(false)
			stats := adaptive.Run(k, adaptive.Config{
				Workers: 4,
				Window:  8,
				Policy:  adaptive.Fixed(eng),
				Start:   eng,
				Spec:    speccross.Config{SpecDistance: safeDist},
			})
			if got := k.Checksum(); got != want {
				t.Fatalf("%v checksum %x != sequential %x", eng, got, want)
			}
			if stats.Switches != 0 {
				t.Fatalf("fixed policy switched %d times", stats.Switches)
			}
			if stats.EngineWindows[eng] != stats.Windows {
				t.Fatalf("engine windows %v, want all %d on %v", stats.EngineWindows, stats.Windows, eng)
			}
			if eng == adaptive.EngineSpecCross && stats.Spec.Misspeculations != 0 {
				t.Fatalf("range-gated speculation misspeculated %d times", stats.Spec.Misspeculations)
			}
		})
	}
}

// TestAdaptiveWindowRemainder checks a window size that does not divide
// the epoch count: the tail window must still run and cover the region.
func TestAdaptiveWindowRemainder(t *testing.T) {
	want := seqChecksum(false)
	k := buildKernel(false)
	stats := adaptive.Run(k, adaptive.Config{
		Workers: 2,
		Window:  7, // 96 = 13*7 + 5
		Policy:  adaptive.Fixed(adaptive.EngineDomore),
		Start:   adaptive.EngineDomore,
	})
	if got := k.Checksum(); got != want {
		t.Fatalf("checksum %x != sequential %x", got, want)
	}
	if stats.Windows != 14 {
		t.Fatalf("Windows = %d, want 14", stats.Windows)
	}
	lastS := stats.Samples[len(stats.Samples)-1]
	if lastS.StartEpoch != 91 || lastS.EndEpoch != 96 {
		t.Fatalf("tail window [%d,%d), want [91,96)", lastS.StartEpoch, lastS.EndEpoch)
	}
	if stats.Domore.Iterations != testEpochs*tpe {
		t.Fatalf("iterations %d, want %d", stats.Domore.Iterations, testEpochs*tpe)
	}
}

// splitViews wraps a kernel so Combine gets two genuinely distinct values.
type domoreView struct{ *epochal.Kernel }
type specView struct{ *epochal.Kernel }

// TestCombine glues separately-implemented engine views back into one
// adaptive workload and checks execution forwards to both.
func TestCombine(t *testing.T) {
	want := seqChecksum(false)
	k := buildKernel(false)
	var w adaptive.Workload = adaptive.Combine(domoreView{k}, specView{k})
	stats := adaptive.Run(w, adaptive.Config{
		Workers: 4,
		Window:  16,
		Spec:    speccross.Config{SpecDistance: safeDist},
	})
	if got := k.Checksum(); got != want {
		t.Fatalf("combined checksum %x != sequential %x", got, want)
	}
	if stats.Windows != testEpochs/16 {
		t.Fatalf("Windows = %d, want %d", stats.Windows, testEpochs/16)
	}
}

// mismatched reports a different epoch count on the speccross view.
type mismatched struct{ *epochal.Kernel }

func (m mismatched) Epochs() int { return m.Kernel.Epochs() - 1 }

// TestViewMismatchPanics: the two views must describe the same region.
func TestViewMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted disagreeing views")
		}
	}()
	k := buildKernel(false)
	adaptive.Run(adaptive.Combine(k, mismatched{k}), adaptive.Config{Workers: 2})
}

// TestAdaptiveRecoversFromRealMisspeculation runs the close-conflict
// variant under an unbounded speculative range: the final high phase's
// distance-7 conflicts genuinely overlap, misspeculate, and roll back.
// Speculative execution past an unchecked conflict is a data race by
// construction (the checker detects it after the fact), so this test is
// skipped under the race detector; the race-safe tests above cover the
// same control path via fault injection.
func TestAdaptiveRecoversFromRealMisspeculation(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("speculation past close conflicts races by design; injection covers this path under -race")
	}
	want := seqChecksum(true)
	k := buildKernel(true)
	stats := adaptive.Run(k, adaptive.Config{
		Workers: 4,
		Window:  8,
	})
	if got := k.Checksum(); got != want {
		t.Fatalf("adaptive checksum %x != sequential %x after rollback", got, want)
	}
	if stats.Spec.Misspeculations == 0 {
		t.Fatal("close-conflict phase never misspeculated")
	}
	if stats.Spec.ReexecutedEpochs == 0 {
		t.Fatal("misspeculation must re-execute the window with barriers")
	}
}
