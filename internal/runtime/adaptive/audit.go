package adaptive

import "fmt"

// Decision is the audit record of one window-boundary choice: everything
// the controller knew when it picked the next engine, plus what that
// knowledge cost. The daemon journals these into /debug/decisions and
// `crossinv -explain` renders them, so a slow or misspeculating request
// leaves a per-window evidence trail of why each engine ran.
type Decision struct {
	// Window is the zero-based window index within the run.
	Window int
	// Sample is the monitor sample the policy decided on (it carries the
	// executed engine, the epoch range, and the window's signals).
	Sample Sample
	// Next is the engine chosen for the following window; Switched
	// reports whether that differs from the window's engine.
	Next     Engine
	Switched bool
	// WindowNs is the wall time of the window's engine execution;
	// BoundaryNs is the cost of the boundary itself (sampling the trace
	// deltas plus the policy decision) — the price of adaptivity, and of
	// a switch when one happens (the quiesce is part of the window join).
	WindowNs   int64
	BoundaryNs int64
	// Reason is the policy's stated ground for Next (from Explainer when
	// the policy provides one, else a generic fallback).
	Reason string
	// SeedSource records how the run's starting engine/policy were
	// primed (Config.SeedSource): static facts, §4.4 profile, plan
	// cache, or empty for a cold start.
	SeedSource string
	// PolicyLow and PolicyHold expose the ThresholdPolicy hysteresis
	// state after the decision (zero for other policies).
	PolicyLow, PolicyHold int
	// RuntimeReused reports whether the run's engine runtime came out of
	// the engine pool (false: it was built for this run, which then paid
	// thread start-up); RuntimeThreads is how many threads it has started
	// by the end of the window, and CheckerShards how many of them a
	// SPECCROSS window uses as checkers.
	RuntimeReused  bool
	RuntimeThreads int
	CheckerShards  int
}

// PolicyState is a policy's self-description after a Decide call, for
// audit rendering: the reason for the last answer and the hysteresis
// counters backing it.
type PolicyState struct {
	Reason    string
	Low, Hold int
}

// Explainer is optionally implemented by policies that can account for
// their decisions. The controller queries it immediately after each
// Decide and copies the state into the window's Decision.
type Explainer interface {
	Explain() PolicyState
}

// Explain implements Explainer for the pinned policy.
func (f Fixed) Explain() PolicyState {
	return PolicyState{Reason: "policy pinned to " + Engine(f).String()}
}

// explainPolicy extracts the audit state from a policy, synthesizing a
// generic reason for policies that do not implement Explainer.
func explainPolicy(p Policy, next Engine) PolicyState {
	if ex, ok := p.(Explainer); ok {
		if st := ex.Explain(); st.Reason != "" {
			return st
		}
	}
	return PolicyState{Reason: fmt.Sprintf("policy %T chose %s", p, next)}
}
