package adaptive

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
	// Reason is the policy's stated ground for Next, as Decide returned it,
	// or, for a window not posted from its first epoch, the ground of what
	// ran it: the engine's own guard ("speccross guard: bound 663 ns/task
	// ≥ inline 147; window ran inline"), or the price test.
	Reason string
	// InlineNs and EngineNs are what decided the window, in ns per task.
	// For a window the engine's own guard ran, they are the guard's rates:
	// its measured inline one and its estimate of the engine's. Otherwise
	// they are the prices the price test compared: the latest inline
	// window's, and the latest posted window's of the window's engine;
	// either is 0 while unpriced, and both are under RunOn.
	InlineNs, EngineNs float64
	// SeedSource records how the run's starting engine/policy were
	// primed (Config.SeedSource): static facts, §4.4 profile, plan
	// cache, or empty for a cold start.
	SeedSource string
	// RuntimeReused reports whether the run's engine runtime came out of
	// the engine pool (false: it was built for this run, which then paid
	// thread start-up); RuntimeThreads is how many threads it has started
	// by the end of the window, and CheckerShards how many of them a
	// SPECCROSS window uses as checkers.
	RuntimeReused  bool
	RuntimeThreads int
	CheckerShards  int
}
