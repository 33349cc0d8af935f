package adaptive

import "crossinv/internal/runtime/speccross"

// This file is the static–dynamic synergy seam (ROADMAP item 5, "The
// Potential of Synergistic Static, Dynamic and Speculative Loop Nest
// Optimizations"): instead of starting every adaptive execution cold with
// the default probe engine, a caller holding static facts or a §4.4
// profile primes the policy state before the first window runs.

// SeedFromFacts primes the config from a static cross-invocation verdict
// (an internal/analysis/xdep class name), so the first window already runs
// the engine the dependence structure calls for instead of probing:
//
//   - "none": the region is provably DOALL across invocations — pin
//     barrier-free speculation. With no cross-invocation dependence the
//     speculative engine can never misspeculate, so the policy is fixed
//     there and the unbounded speculative range (SpecDistance 0) applies;
//   - "forward-only": every dependence flows a bounded number of
//     invocations forward — start in DOMORE, the pipeline regime. When
//     minDistance > 0 it pre-loads the speculative-range bound so a later
//     policy escalation to SPECCROSS speculates within the proven window;
//   - "cyclic" / "unknown": static analysis cannot license anything
//     cheaper, which is exactly the regime the paper's runtimes target —
//     start in SPECCROSS unpinned and let the threshold policy back off
//     to DOMORE if the dependences actually manifest.
//
// An unrecognized class leaves the config untouched and reports false, so
// callers replaying cached facts degrade to the cold default on schema
// drift rather than mis-seeding.
func (c *Config) SeedFromFacts(class string, minDistance int64) bool {
	switch class {
	case "none":
		c.Start = EngineSpecCross
		c.Policy = Fixed(EngineSpecCross)
		c.Spec.SpecDistance = 0
	case "forward-only":
		c.Start = EngineDomore
		if minDistance > 0 {
			c.Spec.SpecDistance = minDistance
		}
	case "cyclic", "unknown":
		c.Start = EngineSpecCross
	default:
		return false
	}
	c.SeedSource = "facts:" + class
	return true
}

// SeedFromProfile primes the config from a §4.4 conflict profile
// (minDistance as speccross.ProfileResult.MinDistance reports it,
// speccross.NoConflict meaning none observed), deciding through
// speccross.ProfileResult.Recommended:
//
//   - profitable speculation: start directly in SPECCROSS with the
//     recommended speculative-range bound installed — skipping the cold
//     DOMORE probe window the default Start would spend rediscovering what
//     the profile knows;
//   - unprofitable speculation: the paper's rule is "speculation will not
//     be done", so the policy is pinned to DOMORE. The default
//     ThresholdPolicy only ever moves between DOMORE and SPECCROSS, so
//     pinning is exactly threshold-minus-speculation — and it keeps
//     profile-gated runs deterministic under the race detector (entering
//     SPECCROSS below the profiled distance races by design).
//
// A workers count below 1 is read as 1.
func (c *Config) SeedFromProfile(minDistance int64, workers int) {
	if workers <= 0 {
		workers = 1
	}
	prof := speccross.ProfileResult{MinDistance: minDistance}
	dist, profitable := prof.Recommended(workers)
	if !profitable {
		c.Start = EngineDomore
		c.Policy = Fixed(EngineDomore)
		c.SeedSource = "profile:unprofitable"
		return
	}
	c.Start = EngineSpecCross
	c.Spec.SpecDistance = dist
	c.SeedSource = "profile:speculate"
}
