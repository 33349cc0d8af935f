// Package phased provides the phase-shifting synthetic workload the
// adaptive runtime is evaluated on (Fig A.1): a region whose
// cross-invocation dependence behaviour changes mid-run. It opens in a
// high-manifest-rate phase (CG/ECLAT-like: ~72% of tasks reuse an address
// written one epoch earlier, including conflicts only a few tasks apart —
// the regime where speculation misspeculates and DOMORE wins), shifts to
// a low-manifest-rate phase (JACOBI-like: ~2% of tasks reuse an address
// from four epochs back, far outside any reasonable speculative range —
// the regime where SPECCROSS wins and DOMORE is scheduler-bound), then
// returns to the high-rate phase. No static engine choice is right for
// the whole region, which is exactly what the adaptive controller is for.
package phased

import (
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/epochal"
)

const (
	// TasksPerEpoch is the inner-loop trip count of every invocation. It is
	// twice the 24-core budget's worker count (23), so the speculative
	// engine — which keeps the baked-in round-robin task-to-worker
	// assignment across epoch boundaries — is load-balanced at the figure's
	// headline core count.
	TasksPerEpoch = 46
	// PhaseEpochs is the length of each phase in epochs at scale 1: long
	// enough that the controller's one-window discovery cost at each phase
	// change (and the per-window pipeline drain) amortizes to a few percent
	// of the phase.
	PhaseEpochs = 900
	// NumPhases is the number of phases (high, low, high).
	NumPhases = 3
	// Window is the recommended adaptive monitoring window in epochs; it
	// divides PhaseEpochs so windows align with phase boundaries, and it is
	// small enough that the one window the controller loses discovering a
	// phase change (a misspeculated probe pays barrier re-execution of the
	// whole window) stays well inside the 10% per-phase budget.
	Window = 12
	// SafeLag is the epoch lag of the far (speculation-safe) reuses: their
	// minimum dependence distance is SafeLag*TasksPerEpoch-1 tasks.
	SafeLag = 4
	// HighRate and LowRate are the target manifest-dependence rates of the
	// two phase kinds, in conflicts per thousand tasks.
	HighRate = 724
	LowRate  = 20

	space = 1 << 17 // shared-state elements; large so fresh draws stay conflict-free
)

// MinSafeDistance is the minimum dependence distance (in tasks) of every
// conflict in the low-rate phases and in NewSafe's high-rate phases.
const MinSafeDistance = SafeLag*TasksPerEpoch - 1

// New builds the phase-shifting instance. High-rate phases conflict with
// the immediately preceding epoch — every epoch boundary carries at least
// one dependence only one task apart, so speculation across it genuinely
// misspeculates (and the §4.4 profitability test fails).
func New(scale int) *epochal.Kernel {
	return build("PHASED", scale, true)
}

// NewSafe builds the race-safe variant: the high-rate phases keep their
// ~72% manifest rate, but every conflict (in every phase) stays at least
// MinSafeDistance tasks from its source. A SPECCROSS window gated with
// SpecDistance <= MinSafeDistance therefore never overlaps conflicting
// tasks — execution is misspeculation-free and data-race-free — while
// DOMORE still observes the frequent dependences. Tests use it to drive
// the full controller (both switch directions) under the race detector;
// see internal/raceflag.
func NewSafe(scale int) *epochal.Kernel {
	return build("PHASED-SAFE", scale, false)
}

// PhaseBounds returns the epoch index where each phase begins, plus the
// total epoch count as the final element: [0, P, 2P, 3P] at the given
// scale.
func PhaseBounds(scale int) []int {
	if scale <= 0 {
		scale = 1
	}
	p := PhaseEpochs * scale
	return []int{0, p, 2 * p, 3 * p}
}

// HighPhase reports whether the given epoch falls in a high-rate phase at
// the given scale (phases 0 and 2).
func HighPhase(epoch, scale int) bool {
	if scale <= 0 {
		scale = 1
	}
	return (epoch/(PhaseEpochs*scale))%2 == 0
}

func build(name string, scale int, closeConflicts bool) *epochal.Kernel {
	if scale <= 0 {
		scale = 1
	}
	epochs := NumPhases * PhaseEpochs * scale
	k := &epochal.Kernel{
		BenchName: name,
		State:     make([]int64, space),
		NumEpochs: epochs,
	}

	// Precompute the address each task updates, like the CG port does: one
	// element read+written per task, reuse pattern fixed per phase.
	rng := workloads.NewRng(0x9A5ED)
	addr := make([]uint64, epochs*TasksPerEpoch)
	lastUsed := make(map[uint64]int, space)
	inEpoch := make(map[uint64]bool, TasksPerEpoch)
	at := func(e, t int) uint64 { return addr[e*TasksPerEpoch+t] }

	for e := 0; e < epochs; e++ {
		high := HighPhase(e, scale)
		clear(inEpoch)
		var perm []int
		if high && closeConflicts {
			// Reuse targets are drawn without replacement so the realized
			// rate tracks HighRate instead of losing collisions to the
			// within-epoch independence rule.
			perm = rng.Perm(TasksPerEpoch)
		}
		for t := 0; t < TasksPerEpoch; t++ {
			var a uint64
			reused := false
			if high && e >= SafeLag && e%(PhaseEpochs*scale) != 0 {
				if closeConflicts {
					// ~72% of tasks reuse the previous epoch; task 0 always
					// reuses the previous epoch's last task, planting a
					// distance-1 dependence on every in-phase boundary.
					if t == 0 {
						a, reused = at(e-1, TasksPerEpoch-1), true
					} else if rng.Intn(1000) < HighRate {
						a, reused = at(e-1, perm[t]), true
					}
				} else if rng.Intn(1000) < HighRate {
					// Same rate, but the source sits SafeLag epochs back
					// (shifted one slot so round-robin never co-locates the
					// pair on one worker, keeping the dependence visible to
					// DOMORE's manifest-rate monitor).
					a, reused = at(e-SafeLag, (t+1)%TasksPerEpoch), true
				}
			} else if !high && e >= SafeLag && rng.Intn(1000) < LowRate {
				a, reused = at(e-SafeLag, (t+1)%TasksPerEpoch), true
			}
			if reused && inEpoch[a] {
				// Tasks within one epoch must stay independent (the inner
				// loop is DOALL); drop a colliding reuse for a fresh draw.
				reused = false
			}
			if !reused {
				for {
					a = uint64(rng.Intn(space))
					if inEpoch[a] {
						continue
					}
					// Keep fresh draws clear of anything recently touched so
					// no accidental short-distance conflict arises.
					if last, ok := lastUsed[a]; !ok || e-last > 3*SafeLag {
						break
					}
				}
			}
			addr[e*TasksPerEpoch+t] = a
			lastUsed[a] = e
			inEpoch[a] = true
		}
	}

	k.TasksOf = func(epoch int) int { return TasksPerEpoch }
	k.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		a := addr[epoch*TasksPerEpoch+task]
		return append(reads, a), append(writes, a)
	}
	k.Update = func(epoch, task int) {
		g := epoch*TasksPerEpoch + task
		a := addr[g]
		k.State[a] = k.State[a]*3 + int64(g) + 1
	}
	// Element-granular addresses: signature address == State index.
	k.AddrSpan = speccross.IdentityCells
	return k
}

func init() {
	workloads.Register(workloads.Entry{
		Name: "PHASED", Suite: "synthetic", Function: "phase_shift", Plan: "DOALL",
		DomoreOK: true, SpecOK: true,
		Make: func(scale int) workloads.Instance { return New(scale) },
	})
}
