package adaptive

import "fmt"

// Engine identifies one of the three execution strategies the controller
// selects between: the non-speculative barrier baseline (Fig 1.3(b)),
// DOMORE's scheduler/worker pipeline (Chapter 3), and SPECCROSS's
// speculative barrier (Chapter 4).
type Engine int

const (
	// EngineDomore is the DOMORE runtime (non-speculative, synchronizes
	// only manifested dependences). It is the zero value on purpose: it is
	// the safe probe when nothing is known yet, so it is also the default
	// starting engine (Config.Start).
	EngineDomore Engine = iota
	// EngineSpecCross is the SPECCROSS runtime (speculative barrier).
	EngineSpecCross
	// EngineBarrier is the pthread-barrier baseline.
	EngineBarrier
	// EngineDomoreSharded is never chosen, run or reported. It stays
	// declared because the repository benchmark, which no change may edit,
	// indexes per-engine counts with it; the crossinvvet frozen-surface rule
	// rejects any other use. ParseEngine reads its old name as EngineDomore.
	EngineDomoreSharded
	// NumEngines is the number of selectable engines.
	NumEngines
)

// String returns the engine's display name.
func (e Engine) String() string {
	switch e {
	case EngineBarrier:
		return "barrier"
	case EngineDomore:
		return "domore"
	case EngineSpecCross:
		return "speccross"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Sample is what the online monitors observed over one window of epochs.
// Each engine reports the signals it can measure natively:
//
//   - DOMORE windows report ManifestRate — the share of scheduled
//     iterations with a manifested dependence, the dynamic analogue of the
//     paper's "manifest rate" (72.4% for CG, 99% for ECLAT, §5.1);
//   - SPECCROSS windows report Misspeculated and CheckerPressure
//     (signature comparisons per task, a proxy for checker-queue load,
//     the §5.2 scaling bottleneck);
//   - barrier windows carry no dependence signal (the baseline is blind,
//     which is why the default policy only uses it as a fallback).
type Sample struct {
	// Engine is the engine that executed the window.
	Engine Engine
	// StartEpoch and EndEpoch delimit the window, [StartEpoch, EndEpoch).
	StartEpoch, EndEpoch int
	// Tasks is the number of tasks/iterations the window executed.
	Tasks int64
	// ManifestRate is domore.Stats.Dependences per iteration (DOMORE
	// windows). It counts a dependence wherever it ran, so keeping one on
	// its worker does not make a window look speculable.
	ManifestRate float64
	// Misspeculated reports whether the window rolled back (SPECCROSS).
	Misspeculated bool
	// CheckerPressure is signature comparisons per task (SPECCROSS).
	CheckerPressure float64
	// PrefilterHitRate is the fraction of checker union pre-filter tests
	// that passed and forced a precise per-task scan (SPECCROSS windows).
	// It is a cheaper leading indicator of checker load than
	// CheckerPressure: the union test runs once per (worker, epoch) row
	// regardless of how many tasks the row logs.
	PrefilterHitRate float64
}

// Policy picks the engine for the next window given the sample of the
// last one. Implementations may be stateful (hysteresis, bandit
// estimators); the controller calls Decide exactly once per window, in
// window order, from a single goroutine.
type Policy interface {
	Decide(s Sample) Engine
}

// ThresholdPolicy is the default controller policy: a hysteresis
// threshold scheme around the paper's crossover finding (§5, Fig 5.4 —
// DOMORE wins when cross-invocation dependences manifest frequently,
// SPECCROSS when they are rare, and §4.4's profitability threshold says
// speculation should not be attempted when conflicts sit too close).
//
// From DOMORE it hands off to SPECCROSS after Patience consecutive
// windows whose manifest rate is at or below SpecEnter. From SPECCROSS it
// falls back to DOMORE as soon as a window misspeculates or checker
// pressure exceeds PressureMax, then holds DOMORE for Backoff windows
// before trusting a low manifest rate again (misspeculation is paid in
// rollback plus barrier re-execution, so flapping is the worst case).
// Barrier windows carry no signal; the policy immediately probes with
// DOMORE, whose monitors see every manifested dependence.
type ThresholdPolicy struct {
	// SpecEnter is the manifest-rate bound at or below which a DOMORE
	// window counts toward switching to SPECCROSS (default 0.05).
	SpecEnter float64
	// PressureMax is the checker-comparisons-per-task bound above which a
	// SPECCROSS window triggers fallback to DOMORE (default 8).
	PressureMax float64
	// Patience is how many consecutive qualifying DOMORE windows are
	// required before entering SPECCROSS (default 1).
	Patience int
	// Backoff is how many DOMORE windows to hold after a misspeculation
	// before low manifest rates count again (default 4).
	Backoff int
	// PrefilterMax, when positive, is the union pre-filter hit-rate bound
	// above which a SPECCROSS window triggers fallback even before the
	// precise comparisons pile up (the cheap checker-pressure signal).
	// Zero disables the check, which is the default: the bound is
	// workload-dependent, so callers opt in.
	PrefilterMax float64

	low        int    // consecutive DOMORE windows at/below SpecEnter
	hold       int    // remaining post-misspeculation hold windows
	lastReason string // ground for the last Decide answer, for Explain
}

// NewThreshold returns a ThresholdPolicy with the default constants.
func NewThreshold() *ThresholdPolicy {
	return &ThresholdPolicy{SpecEnter: 0.05, PressureMax: 8, Patience: 1, Backoff: 4}
}

func (p *ThresholdPolicy) fill() {
	if p.SpecEnter == 0 {
		p.SpecEnter = 0.05
	}
	if p.PressureMax == 0 {
		p.PressureMax = 8
	}
	if p.Patience <= 0 {
		p.Patience = 1
	}
	if p.Backoff <= 0 {
		p.Backoff = 4
	}
}

// Decide implements Policy.
func (p *ThresholdPolicy) Decide(s Sample) Engine {
	p.fill()
	switch s.Engine {
	case EngineBarrier:
		// The barrier baseline observes nothing; probe with DOMORE, whose
		// scheduler measures the manifest rate directly.
		p.lastReason = "barrier window carries no dependence signal; probing with domore"
		return EngineDomore
	case EngineDomore:
		if p.hold > 0 {
			p.hold--
			p.low = 0
			p.lastReason = fmt.Sprintf("post-misspeculation backoff, holding %v (%d windows left)", s.Engine, p.hold)
			return s.Engine
		}
		if s.ManifestRate <= p.SpecEnter {
			p.low++
		} else {
			p.low = 0
		}
		if p.low >= p.Patience {
			p.low = 0
			p.lastReason = fmt.Sprintf("manifest rate %.3f at/below spec-enter %.3f for %d window(s); entering speculation",
				s.ManifestRate, p.SpecEnter, p.Patience)
			return EngineSpecCross
		}
		if s.ManifestRate <= p.SpecEnter {
			p.lastReason = fmt.Sprintf("manifest rate %.3f qualifies but patience %d/%d not met", s.ManifestRate, p.low, p.Patience)
		} else {
			p.lastReason = fmt.Sprintf("manifest rate %.3f above spec-enter %.3f; dependences manifest, staying in %v",
				s.ManifestRate, p.SpecEnter, s.Engine)
		}
		return s.Engine
	case EngineSpecCross:
		switch {
		case s.Misspeculated:
			p.lastReason = fmt.Sprintf("window misspeculated; falling back to domore for %d windows", p.Backoff)
		case s.CheckerPressure > p.PressureMax:
			p.lastReason = fmt.Sprintf("checker pressure %.2f above %.2f; falling back to domore", s.CheckerPressure, p.PressureMax)
		case p.PrefilterMax > 0 && s.PrefilterHitRate > p.PrefilterMax:
			p.lastReason = fmt.Sprintf("pre-filter hit rate %.2f above %.2f; falling back to domore", s.PrefilterHitRate, p.PrefilterMax)
		default:
			p.lastReason = fmt.Sprintf("speculation healthy (pressure %.2f, pre-filter hit rate %.2f); staying in speccross",
				s.CheckerPressure, s.PrefilterHitRate)
			return EngineSpecCross
		}
		p.hold = p.Backoff
		p.low = 0
		return EngineDomore
	}
	p.lastReason = fmt.Sprintf("unknown engine %v; keeping it", s.Engine)
	return s.Engine
}

// Explain implements Explainer: the reason for the last Decide answer
// plus the hysteresis counters backing it.
func (p *ThresholdPolicy) Explain() PolicyState {
	return PolicyState{Reason: p.lastReason, Low: p.low, Hold: p.hold}
}

// Fixed is a degenerate policy that always answers the same engine — the
// static strategies the adaptive controller is compared against (and a
// way to run any single engine through the windowed execution path).
type Fixed Engine

// Decide implements Policy.
func (f Fixed) Decide(Sample) Engine { return Engine(f) }
