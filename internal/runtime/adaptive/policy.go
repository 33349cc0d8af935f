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
	// rejects any other use.
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
	// Tasks is the number of tasks/iterations the window ran, each counted
	// once however often a misspeculating SPECCROSS window executed it.
	Tasks int64
	// Inline is how many of them Run ran on the calling thread: all of
	// them in a window the price test ran inline, which carries none of the
	// signals below; in a window that went through Engine's own guard,
	// those its probe ran before the guard posted the rest or finished the
	// window inline. The signals of such a
	// split window come from its posted rest, which never saw the
	// dependences into its inline epochs. The policy reads only windows
	// with Inline 0, which under RunOn is every window.
	Inline int64
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
// last one, and states its ground: the reason is what the window's
// Decision journals. Implementations may be stateful; the controller calls
// Decide once per window posted to its engine from its first epoch — every
// window under RunOn, and under Run those with Sample.Inline 0 — in window
// order, from a single goroutine.
type Policy interface {
	Decide(s Sample) (next Engine, reason string)
}

// The default policy's bounds.
const (
	// specEnter is the manifest rate at or below which a DOMORE window
	// hands off to SPECCROSS.
	specEnter = 0.05
	// pressureMax is the checker comparisons per task above which a
	// SPECCROSS window falls back to DOMORE.
	pressureMax float64 = 8
	// backoff is how many DOMORE windows the policy holds after a fallback
	// before a low manifest rate counts again.
	backoff = 4
)

// ThresholdPolicy is the default controller policy: a hysteresis
// threshold scheme around the paper's crossover finding (§5, Fig 5.4 —
// DOMORE wins when cross-invocation dependences manifest frequently,
// SPECCROSS when they are rare, and §4.4's profitability threshold says
// speculation should not be attempted when conflicts sit too close).
//
// From DOMORE it hands off to SPECCROSS after a window whose manifest rate
// is at or below specEnter. From SPECCROSS it falls back to DOMORE as soon
// as a window misspeculates or checker pressure exceeds pressureMax, then
// holds DOMORE for backoff windows before trusting a low manifest rate
// again (misspeculation is paid in rollback plus barrier re-execution, so
// flapping is the worst case). Barrier windows carry no signal; the policy
// immediately probes with DOMORE, whose monitors see every manifested
// dependence. The zero value is ready to use.
type ThresholdPolicy struct {
	hold int // remaining post-misspeculation hold windows
}

// Decide implements Policy.
func (p *ThresholdPolicy) Decide(s Sample) (Engine, string) {
	switch s.Engine {
	case EngineBarrier:
		// The barrier baseline observes nothing; probe with DOMORE, whose
		// scheduler measures the manifest rate directly.
		return EngineDomore, "barrier window carries no dependence signal; probing with domore"
	case EngineDomore:
		if p.hold > 0 {
			p.hold--
			return s.Engine, fmt.Sprintf("post-misspeculation backoff, holding %v (%d windows left)", s.Engine, p.hold)
		}
		if s.ManifestRate <= specEnter {
			return EngineSpecCross, fmt.Sprintf("manifest rate %.3f at/below spec-enter %.3f for 1 window(s); entering speculation",
				s.ManifestRate, specEnter)
		}
		return s.Engine, fmt.Sprintf("manifest rate %.3f above spec-enter %.3f; dependences manifest, staying in %v",
			s.ManifestRate, specEnter, s.Engine)
	case EngineSpecCross:
		var reason string
		switch {
		case s.Misspeculated:
			reason = fmt.Sprintf("window misspeculated; falling back to domore for %d windows", backoff)
		case s.CheckerPressure > pressureMax:
			reason = fmt.Sprintf("checker pressure %.2f above %.2f; falling back to domore", s.CheckerPressure, pressureMax)
		default:
			return EngineSpecCross, fmt.Sprintf("speculation healthy (pressure %.2f, pre-filter hit rate %.2f); staying in speccross",
				s.CheckerPressure, s.PrefilterHitRate)
		}
		p.hold = backoff
		return EngineDomore, reason
	}
	return s.Engine, fmt.Sprintf("unknown engine %v; keeping it", s.Engine)
}

// Fixed is a degenerate policy that always answers the same engine — the
// static strategies the adaptive controller is compared against (and a
// way to run any single engine through the windowed execution path). It
// must name an engine below NumEngines.
type Fixed Engine

// pinned holds Fixed's reasons, built once so a pinned window allocates
// nothing.
var pinned = func() (r [NumEngines]string) {
	for e := range r {
		r[e] = "policy pinned to " + Engine(e).String()
	}
	return r
}()

// Decide implements Policy.
func (f Fixed) Decide(Sample) (Engine, string) { return Engine(f), pinned[f] }
