// Package trace is the runtime observability layer shared by every
// execution engine: a low-overhead, per-thread event recorder that the
// barrier, DOMORE, SPECCROSS, and adaptive runtimes emit into.
//
// Design constraints, in order:
//
//  1. Disabled tracing must cost (almost) nothing. Engines hold a
//     *Recorder that is normally nil; Recorder.Lane on a nil recorder
//     returns a nil *ThreadTrace, and every ThreadTrace method is a no-op
//     on a nil receiver. The hot-path cost of disabled tracing is one
//     pointer comparison per emission site.
//  2. No locks on the hot path. Each engine thread owns exactly one lane
//     (a *ThreadTrace); emission appends to the lane's private ring
//     buffer and bumps the lane's private per-kind counters. The only
//     lock is taken at lane registration (once per thread per run).
//     The counters are single-writer atomics, so a monitoring goroutine
//     (crossinv -serve) can read a live Summary while engines emit.
//  3. Bounded memory. Each lane is a fixed-capacity ring; when a run
//     emits more events than fit, the oldest events are overwritten and
//     counted as dropped. The per-kind counters never drop, so counts
//     derived from a Summary are exact even when the ring overflowed —
//     this is what lets tests assert trace-derived statistics equal the
//     engines' own Stats.
//
// Events cover the lifecycle the paper's engines share: iteration/task
// spans, worker stalls with their ⟨depTid, depIterNum⟩ condition
// (§3.2.2), queue full/empty backoff episodes (§3.2.3), epoch
// begin/commit/abort segments, signature checks (§4.2.1),
// misspeculation and recovery spans (§4.2.2), checkpoint/restore, and
// the adaptive controller's window and engine-switch decisions.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies one event type. The schema (argument meaning per kind)
// is documented next to each constant and summarized in README.md.
type Kind uint8

const (
	// KindIterStart/KindIterEnd span one non-speculative iteration or
	// task execution: a DOMORE worker iteration or a barrier-engine task.
	// A=invocation/epoch, B=iteration/task index, C=global iteration
	// number (DOMORE) or 0.
	KindIterStart Kind = iota
	KindIterEnd
	// KindTaskStart/KindTaskEnd span one speculative SPECCROSS task.
	// A=epoch, B=task, C=global task number.
	KindTaskStart
	KindTaskEnd
	// KindSchedule marks the DOMORE scheduler scheduling one iteration.
	// A=1, B=invocation, C=global iteration number.
	KindSchedule
	// KindAddrCheck reports the shadow-memory lookups of one scheduled
	// iteration. A=#addresses, B=invocation, C=global iteration number.
	KindAddrCheck
	// KindSyncCond marks one forwarded ⟨depTid, depIterNum⟩ condition.
	// A=target worker, B=depTid, C=depIterNum.
	KindSyncCond
	// KindDispatch marks one (iteration, worker) dispatch.
	// A=target worker, B=global iteration number.
	KindDispatch
	// KindQueueDepth samples a queue's buffered length at dispatch time.
	// A=depth, B=queue owner lane.
	KindQueueDepth
	// KindStallBegin/KindStallEnd span a worker wait on an unsatisfied
	// dependence. A=depTid, B=depIterNum.
	KindStallBegin
	KindStallEnd
	// KindQueueFullBegin/KindQueueFullEnd span a producer backoff episode
	// on a full ring. A=queue owner lane.
	KindQueueFullBegin
	KindQueueFullEnd
	// KindQueueEmptyBegin/KindQueueEmptyEnd span a consumer backoff
	// episode on an empty ring. A=queue owner lane.
	KindQueueEmptyBegin
	KindQueueEmptyEnd
	// KindBarrierWaitBegin/KindBarrierWaitEnd span one barrier wait.
	// A=epoch.
	KindBarrierWaitBegin
	KindBarrierWaitEnd
	// KindRangeStallBegin/KindRangeStallEnd span a speculative-range
	// stall (the enter_task gating of Table 4.1, taken per chunk). A=global
	// task number of the chunk's last task, B=distance bound.
	KindRangeStallBegin
	KindRangeStallEnd
	// KindEpochBegin opens an epoch segment. A=start epoch, B=end epoch
	// (exclusive). Closed by KindEpochCommit or KindEpochAbort.
	KindEpochBegin
	// KindEpochCommit closes a committed segment. A=#epochs committed,
	// B=start, C=end.
	KindEpochCommit
	// KindEpochAbort closes a misspeculated segment. A=start, B=end.
	KindEpochAbort
	// KindSigCheck marks one checker signature comparison.
	// A=logged task's lane, B=logged task's packed position.
	KindSigCheck
	// KindCheckRequest marks a checking request — one chunk of tasks —
	// whose comparison window was non-empty (§4.1.3). A=requesting worker,
	// B=packed position of the chunk's first task.
	KindCheckRequest
	// KindMisspec marks a detected misspeculation. A=reason
	// (1 conflict, 2 panic, 3 injected, 4 timeout), B=start, C=end.
	KindMisspec
	// KindCheckpoint marks a checkpoint. A=epoch after which state is safe.
	KindCheckpoint
	// KindRestore marks a rollback to the segment checkpoint: the
	// segment's dirty cells, every cell of a workload with no cell map,
	// were rewritten from the image. A=#cells restored, B=start epoch.
	KindRestore
	// KindRecoveryBegin/KindRecoveryEnd span the non-speculative barrier
	// re-execution after misspeculation. Begin: A=start, B=end.
	// End: A=#epochs re-executed, B=start, C=end.
	KindRecoveryBegin
	KindRecoveryEnd
	// KindWindowBegin marks an adaptive monitoring window. A=first epoch,
	// B=end epoch (exclusive), C=engine. Engine-emitted epoch numbers
	// inside a window are window-relative; this event carries the base.
	KindWindowBegin
	// KindEngineSwitch marks an adaptive engine change at a window
	// boundary. A=from engine, B=to engine, C=boundary epoch.
	KindEngineSwitch
	// KindSigPrefilter marks one checker union pre-filter test: the
	// arriving signature against the running union of a (worker, epoch)
	// log row. A=1 if the row passed the filter (a precise per-task scan
	// followed), else 0 — so Sums[KindSigPrefilter] is the exact hit
	// count and Counts[KindSigPrefilter] the total tests, the
	// checker-pressure signal the adaptive monitor samples. B=logged
	// row's lane, C=relative epoch.
	KindSigPrefilter
	// KindCkptDelta marks an incremental checkpoint: the base image was
	// refreshed for the segment's dirty cells only. A=#cells refreshed,
	// B=epoch after which state is safe. Always paired with the
	// KindCheckpoint event of the same commit.
	KindCkptDelta
	// KindSpanBegin/KindSpanEnd delimit one request-scoped span (see
	// span.go): a named stage of a daemon invocation (admission, cache
	// lookup, profile, window, …). A=span id (unique per recorder),
	// B=parent span id (0 = root), C=SpanKind code.
	KindSpanBegin
	KindSpanEnd
	// KindInline reports the decision of an engine's guard. domore.Run
	// emits it on the scheduler lane once the region is done: A=iterations
	// run inline on the calling thread, B=their measured ns per iteration,
	// C=the scheduler's measured ns per iteration; the region went parallel
	// after A iterations when C < B. speccross.Run emits it on the control
	// lane once the region is done: A=epochs run inline on the calling
	// thread, B=their measured ns per task, C=speculation's ns per task (the
	// probe's lower bound, or the segment that handed the rest back).
	// adaptive.Run emits it on the control lane for each window that ran
	// tasks inline: A=those tasks, B=their measured ns per task, C=the
	// window engine's price, its latest posted window's ns per task (0
	// while unpriced), or, for a window that engine's own guard ran, the
	// guard's two rates; the engine's guard emits none of its own there.
	KindInline

	// KindCount is the number of event kinds (not itself a kind).
	KindCount
)

var kindNames = [KindCount]string{
	KindIterStart:        "iter.start",
	KindIterEnd:          "iter.end",
	KindTaskStart:        "task.start",
	KindTaskEnd:          "task.end",
	KindSchedule:         "schedule",
	KindAddrCheck:        "addr.check",
	KindSyncCond:         "sync.cond",
	KindDispatch:         "dispatch",
	KindQueueDepth:       "queue.depth",
	KindStallBegin:       "stall.begin",
	KindStallEnd:         "stall.end",
	KindQueueFullBegin:   "queue.full.begin",
	KindQueueFullEnd:     "queue.full.end",
	KindQueueEmptyBegin:  "queue.empty.begin",
	KindQueueEmptyEnd:    "queue.empty.end",
	KindBarrierWaitBegin: "barrier.wait.begin",
	KindBarrierWaitEnd:   "barrier.wait.end",
	KindRangeStallBegin:  "range.stall.begin",
	KindRangeStallEnd:    "range.stall.end",
	KindEpochBegin:       "epoch.begin",
	KindEpochCommit:      "epoch.commit",
	KindEpochAbort:       "epoch.abort",
	KindSigCheck:         "sig.check",
	KindCheckRequest:     "check.request",
	KindMisspec:          "misspec",
	KindCheckpoint:       "checkpoint",
	KindRestore:          "restore",
	KindRecoveryBegin:    "recovery.begin",
	KindRecoveryEnd:      "recovery.end",
	KindWindowBegin:      "window.begin",
	KindEngineSwitch:     "engine.switch",
	KindSigPrefilter:     "sig.prefilter",
	KindCkptDelta:        "checkpoint.delta",
	KindSpanBegin:        "span.begin",
	KindSpanEnd:          "span.end",
	KindInline:           "inline",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Reserved lane identifiers for the non-worker threads. Worker threads
// use their tid (>= 0) as the lane.
const (
	// LaneScheduler is the DOMORE dedicated scheduler thread.
	LaneScheduler = -1
	// LaneControl is the engine/controller goroutine: SPECCROSS segment
	// control (checkpoint, rollback, recovery) and the adaptive
	// controller's window decisions.
	LaneControl = -2
	// LaneCheckerBase is the first SPECCROSS checker shard; shard s uses
	// lane LaneCheckerBase - s.
	LaneCheckerBase = -3
	// LaneRequest is the daemon's request lane: the goroutine serving one
	// /run invocation emits its lifecycle spans (admission, cache lookup,
	// analysis stages) here. Far below the checker range so any realistic
	// shard count stays clear of it.
	LaneRequest = -1000
)

// LaneName renders a lane identifier for human-readable output.
func LaneName(lane int32) string {
	switch {
	case lane >= 0:
		return "worker " + itoa(int64(lane))
	case lane == LaneScheduler:
		return "scheduler"
	case lane == LaneControl:
		return "control"
	case lane == LaneRequest:
		return "request"
	default:
		return "checker " + itoa(int64(LaneCheckerBase-lane))
	}
}

// itoa avoids importing strconv into the hot-path file for two call
// sites; it handles the small non-negative integers lanes use.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Event is one recorded occurrence. Nanos is relative to the recorder's
// construction time; A, B, C are kind-specific (see the Kind constants).
type Event struct {
	Nanos   int64
	Lane    int32
	Kind    Kind
	A, B, C int64
}

// DefaultRingCap is the per-lane event capacity of NewRecorder.
const DefaultRingCap = 1 << 14

// Hook observes every recorded event synchronously, on the emitting
// thread, immediately after the event is stored. It exists for fault
// injection: a chaos harness can install a hook that delays chosen lanes
// at chosen event kinds, perturbing schedules at exactly the points the
// engines already mark as interesting (stalls, task starts, queue
// episodes) without adding new instrumentation sites. Hooks must be fast
// and must not emit into the same recorder (that would recurse).
type Hook func(lane int32, k Kind, a, b, c int64)

// Recorder collects events from a set of lanes (one per engine thread).
// A nil *Recorder is the disabled state: Lane returns nil and every
// derived accessor returns zero values.
type Recorder struct {
	start   time.Time
	ringCap int
	hook    Hook

	// invocation labels the recorder with the request it is scoped to
	// (empty outside the daemon); spanID allocates span identifiers.
	// Both follow the same quiescence rules as hook: SetInvocation and
	// Reset only while no thread emits.
	invocation string
	spanID     atomic.Int64

	mu    sync.Mutex
	lanes map[int32]*ThreadTrace
}

// NewRecorder returns an enabled recorder with DefaultRingCap events of
// buffer per lane.
func NewRecorder() *Recorder { return NewRecorderCap(DefaultRingCap) }

// NewRecorderCap returns a recorder whose per-lane rings hold ringCap
// events (rounded up to a power of two, minimum 16).
func NewRecorderCap(ringCap int) *Recorder {
	n := 16
	for n < ringCap {
		n <<= 1
	}
	return &Recorder{start: time.Now(), ringCap: n, lanes: map[int32]*ThreadTrace{}}
}

// Lane returns the per-thread emission handle for the given lane,
// creating it on first use. Safe to call from any goroutine; the
// returned handle must then be used by a single goroutine at a time
// (engine threads re-using a lane across adaptive windows are fine
// because window boundaries quiesce). On a nil recorder, Lane returns
// nil, which every ThreadTrace method treats as "tracing disabled".
func (r *Recorder) Lane(lane int32) *ThreadTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.lanes[lane]; ok {
		return t
	}
	t := &ThreadTrace{rec: r, lane: lane, ring: make([]Event, r.ringCap), mask: uint64(r.ringCap - 1)}
	r.lanes[lane] = t
	return t
}

// SetHook installs fn as the recorder's event hook (nil uninstalls it).
// It must be called before any engine thread emits — the field is read
// without synchronization on the hot path, so installation is only safe
// while the recorder is quiescent (the goroutine-spawn edge into the
// engine's threads publishes it). A nil receiver ignores the call.
func (r *Recorder) SetHook(fn Hook) {
	if r == nil {
		return
	}
	r.hook = fn
}

// SetInvocation labels the recorder with the request id it is scoped to.
// Like SetHook it is only safe while the recorder is quiescent. A nil
// receiver ignores the call.
func (r *Recorder) SetInvocation(id string) {
	if r == nil {
		return
	}
	r.invocation = id
}

// Invocation returns the label set by SetInvocation ("" when unset or on
// a nil recorder).
func (r *Recorder) Invocation() string {
	if r == nil {
		return ""
	}
	return r.invocation
}

// Reset rewinds the recorder to an empty state while keeping its lanes
// and their ring allocations, so a pool of per-request recorders reuses
// buffers instead of reallocating them. The clock restarts (event Nanos
// are relative to the Reset), span ids restart from 1, and the
// invocation label clears; the hook is kept. Only legal while the
// recorder is quiescent — the daemon calls it between invocations, after
// the previous request fully drained. A nil receiver ignores the call.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.lanes {
		for k := Kind(0); k < KindCount; k++ {
			t.counts[k].Store(0)
			t.sums[k].Store(0)
		}
		t.n.Store(0)
	}
	r.start = time.Now()
	r.spanID.Store(0)
	r.invocation = ""
}

// now returns nanoseconds since the recorder was constructed.
func (r *Recorder) now() int64 { return int64(time.Since(r.start)) }

// laneList returns the lanes sorted by id (workers ascending after the
// special lanes), for deterministic export order.
func (r *Recorder) laneList() []*ThreadTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*ThreadTrace, 0, len(r.lanes))
	for _, t := range r.lanes {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lane < out[j].lane })
	return out
}

// ThreadTrace is one lane's private event sink. All methods are no-ops
// on a nil receiver.
//
// The counters (counts, sums, n) are written only by the lane's owning
// thread but stored atomically, so Summary may read them from another
// goroutine at any time without a data race. The ring entries themselves
// are plain memory: only the quiescent consumers (Metrics, Events, the
// Chrome and timeline exporters) walk them.
type ThreadTrace struct {
	rec  *Recorder
	lane int32
	ring []Event
	mask uint64
	n    atomic.Uint64 // total events emitted; ring write cursor

	counts [KindCount]atomic.Int64 // exact per-kind event counts (never drop)
	sums   [KindCount]atomic.Int64 // exact per-kind sums of argument A
}

// Enabled reports whether emissions on this handle record anything;
// use it to skip argument computation (e.g. a queue-length sample)
// when tracing is off.
func (t *ThreadTrace) Enabled() bool { return t != nil }

// Emit records one event. The meaning of a, b, c depends on k; see the
// Kind constants. Argument a is additionally accumulated into the
// per-kind sum, which several derived statistics use.
// Emit's nil guard must inline so that a disabled recorder costs a branch,
// not a call, at every instrumentation site; the ring write lives in emit,
// which is too large to inline.
func (t *ThreadTrace) Emit(k Kind, a, b, c int64) {
	if t == nil {
		return
	}
	t.emit(k, a, b, c)
}

func (t *ThreadTrace) emit(k Kind, a, b, c int64) {
	// Single writer per lane: Load+Store (not Add) keeps the hot path a
	// plain read plus one atomic store per counter.
	t.counts[k].Store(t.counts[k].Load() + 1)
	t.sums[k].Store(t.sums[k].Load() + a)
	n := t.n.Load()
	t.ring[n&t.mask] = Event{Nanos: t.rec.now(), Lane: t.lane, Kind: k, A: a, B: b, C: c}
	t.n.Store(n + 1)
	if h := t.rec.hook; h != nil {
		h(t.lane, k, a, b, c)
	}
}

// events returns the lane's surviving ring contents, oldest first.
func (t *ThreadTrace) events() []Event {
	n := t.n.Load()
	if n <= uint64(len(t.ring)) {
		return t.ring[:n]
	}
	out := make([]Event, 0, len(t.ring))
	for i := n - uint64(len(t.ring)); i < n; i++ {
		out = append(out, t.ring[i&t.mask])
	}
	return out
}

// dropped reports how many of the lane's events were overwritten.
func (t *ThreadTrace) dropped() int64 {
	n := t.n.Load()
	if n <= uint64(len(t.ring)) {
		return 0
	}
	return int64(n) - int64(len(t.ring))
}

// Summary is the exact per-kind accounting of a recorder: event counts
// and argument-A sums per kind, aggregated over all lanes. Unlike the
// ring contents, these never drop, so engine statistics derived from a
// Summary are exact.
type Summary struct {
	Counts  [KindCount]int64
	Sums    [KindCount]int64
	Events  int64
	Dropped int64
	Lanes   int
}

// Summary aggregates the per-lane counters. The counters are single-
// writer atomics, so Summary is safe to call at any time: while engines
// are quiescent (between windows, or after a run) it is exact; while they
// run it is a live monotone snapshot whose counts may lag the emitting
// threads by a few events (each lane's counters are read independently).
// On a nil recorder it returns the zero Summary.
func (r *Recorder) Summary() Summary {
	var s Summary
	if r == nil {
		return s
	}
	for _, t := range r.laneList() {
		for k := Kind(0); k < KindCount; k++ {
			s.Counts[k] += t.counts[k].Load()
			s.Sums[k] += t.sums[k].Load()
		}
		s.Events += int64(t.n.Load())
		s.Dropped += t.dropped()
		s.Lanes++
	}
	return s
}

// Events returns every surviving event, grouped by lane (lanes in id
// order, each lane's events oldest first). Events overwritten by ring
// wraparound are absent; Summary counts remain exact regardless.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, t := range r.laneList() {
		out = append(out, t.events()...)
	}
	return out
}

// SpanEvents returns only the surviving span begin/end events, in the
// same lane-grouped order as Events. It exists for the always-on flight
// recorder: extracting a request's span skeleton (dozens of events)
// without materializing its full engine stream (potentially the whole
// ring) keeps the per-invocation retention cost independent of event
// volume.
func (r *Recorder) SpanEvents() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, t := range r.laneList() {
		for _, e := range t.events() {
			if e.Kind == KindSpanBegin || e.Kind == KindSpanEnd {
				out = append(out, e)
			}
		}
	}
	return out
}
