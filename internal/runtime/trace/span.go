package trace

import "sort"

// Request-scoped spans. A span names one stage of a daemon invocation —
// admission, plan-cache lookup, the §4.4 profile, one adaptive window,
// engine execution — and carries an id, a parent id, and a wall
// interval. Spans ride the existing ring recorder as a pair of events
// (KindSpanBegin/KindSpanEnd), so the hot path inherits the recorder's
// properties: a nil handle costs one pointer comparison, an enabled one
// two ring writes, and no allocation either way (Span is a value).
//
// Span ids are allocated from the recorder's atomic counter, so spans
// emitted on different lanes of the same recorder (the request lane and
// the adaptive controller's LaneControl) never collide and can parent
// each other across lanes.

// SpanKind names the stage a span covers. The code travels in the
// event's C argument.
type SpanKind uint8

const (
	// SpanInvocation is the root span of one daemon /run request; every
	// other span of the invocation descends from it.
	SpanInvocation SpanKind = iota
	// SpanAdmission covers the admission-control wait (semaphore or
	// bounded queue) before the request is allowed to execute.
	SpanAdmission
	// SpanCacheLookup covers the plan-cache probe: key derivation plus
	// the verify-on-load disk read.
	SpanCacheLookup
	// SpanCompile covers frontend parse + loop-nest compilation.
	SpanCompile
	// SpanOracle covers the sequential oracle execution that produces
	// the reference checksum.
	SpanOracle
	// SpanProfile covers the §4.4 profiling pass.
	SpanProfile
	// SpanPlan covers deriving and verifying every region plan of a
	// compiled program (its one Lint).
	SpanPlan
	// SpanWindow covers one adaptive monitoring window (emitted on
	// LaneControl by the controller, parented under SpanExecute).
	SpanWindow
	// SpanExecute covers the parallel engine execution itself.
	SpanExecute

	// SpanKindCount is the number of span kinds (not itself a kind).
	SpanKindCount
)

var spanKindNames = [SpanKindCount]string{
	SpanInvocation:  "invocation",
	SpanAdmission:   "admission",
	SpanCacheLookup: "cache.lookup",
	SpanCompile:     "compile",
	SpanOracle:      "oracle",
	SpanProfile:     "profile",
	SpanPlan:        "plan",
	SpanWindow:      "window",
	SpanExecute:     "execute",
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) && spanKindNames[k] != "" {
		return spanKindNames[k]
	}
	return "span"
}

// Span is a by-value handle for an open span. The zero Span (returned by
// BeginSpan on a disabled handle) is inert: End is a no-op and ID
// reports 0, which doubles as the "no parent" sentinel — so code can
// thread parent ids unconditionally whether tracing is on or off.
type Span struct {
	t      *ThreadTrace
	id     int64
	parent int64
	kind   SpanKind
}

// BeginSpan opens a span of the given kind under parent (0 = root) and
// emits its begin event on this lane. On a nil handle it returns the
// inert zero Span.
func (t *ThreadTrace) BeginSpan(k SpanKind, parent int64) Span {
	if t == nil {
		return Span{}
	}
	id := t.rec.spanID.Add(1)
	t.emit(KindSpanBegin, id, parent, int64(k))
	return Span{t: t, id: id, parent: parent, kind: k}
}

// ID returns the span's identifier (0 for the inert zero Span).
func (s Span) ID() int64 { return s.id }

// End closes the span, emitting its end event on the lane that opened
// it. A no-op on the zero Span. Spans on one lane must close in LIFO
// order (they describe nested stages), which the Chrome exporter and
// validator rely on.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.emit(KindSpanEnd, s.id, s.parent, int64(s.kind))
}

// SpanInfo is one reconstructed span: the pairing of a begin and (when
// it survived the ring) an end event. EndNs is 0 for spans still open or
// whose end was overwritten.
type SpanInfo struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	Lane    int32  `json:"lane"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns,omitempty"`
}

// SpansFromEvents reconstructs the span set from an event slice (as
// returned by Recorder.Events or retained in a flight-recorder window),
// pairing begin/end by span id. Ends whose begins were overwritten by
// ring wraparound are dropped. The result is ordered by start time,
// then id.
func SpansFromEvents(events []Event) []SpanInfo {
	var out []SpanInfo
	idx := map[int64]int{}
	for _, e := range events {
		switch e.Kind {
		case KindSpanBegin:
			idx[e.A] = len(out)
			out = append(out, SpanInfo{
				ID: e.A, Parent: e.B, Kind: SpanKind(e.C).String(),
				Lane: e.Lane, StartNs: e.Nanos,
			})
		case KindSpanEnd:
			if i, ok := idx[e.A]; ok {
				out[i].EndNs = e.Nanos
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNs != out[j].StartNs {
			return out[i].StartNs < out[j].StartNs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Spans reconstructs the recorder's surviving spans across all lanes.
// Quiescent consumers only (it walks the rings); nil recorders report
// none.
func (r *Recorder) Spans() []SpanInfo {
	if r == nil {
		return nil
	}
	return SpansFromEvents(r.Events())
}
