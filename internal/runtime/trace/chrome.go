package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace_event JSON format
// (the "JSON Array Format" chrome://tracing and Perfetto load).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level object form of the format.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeTID maps a lane to a non-negative Chrome thread id with a
// stable, legible ordering: request=0, control=1, scheduler=2,
// checkers=3…, workers from 10.
func chromeTID(lane int32) int {
	switch {
	case lane >= 0:
		return 10 + int(lane)
	case lane == LaneRequest:
		return 0
	case lane == LaneControl:
		return 1
	case lane == LaneScheduler:
		return 2
	default: // checker shard s at lane LaneCheckerBase-s
		return 3 + int(LaneCheckerBase-lane)
	}
}

// spanArgs names the A/B/C arguments for span-class begin events so the
// Chrome UI shows meaningful fields.
func eventArgs(e Event) map[string]any {
	switch e.Kind {
	case KindIterStart, KindIterEnd, KindTaskStart, KindTaskEnd:
		return map[string]any{"epoch": e.A, "index": e.B, "global": e.C}
	case KindStallBegin, KindStallEnd:
		return map[string]any{"depTid": e.A, "depIter": e.B}
	case KindSyncCond:
		return map[string]any{"target": e.A, "depTid": e.B, "depIter": e.C}
	case KindRangeStallBegin, KindRangeStallEnd:
		return map[string]any{"global": e.A, "distance": e.B}
	case KindEpochBegin, KindEpochAbort, KindRecoveryBegin:
		return map[string]any{"start": e.A, "end": e.B}
	case KindEpochCommit, KindRecoveryEnd:
		return map[string]any{"epochs": e.A, "start": e.B, "end": e.C}
	case KindMisspec:
		return map[string]any{"reason": e.A, "start": e.B, "end": e.C}
	case KindWindowBegin:
		return map[string]any{"start": e.A, "end": e.B, "engine": e.C}
	case KindEngineSwitch:
		return map[string]any{"from": e.A, "to": e.B, "epoch": e.C}
	case KindInline:
		if e.Lane == LaneControl {
			return map[string]any{"inline": e.A, "inlineNs": e.B, "engineNs": e.C}
		}
		return map[string]any{"iterations": e.A, "inlineNs": e.B, "schedNs": e.C}
	case KindQueueDepth:
		return nil // rendered as a counter event
	default:
		return map[string]any{"a": e.A, "b": e.B, "c": e.C}
	}
}

// appendLaneChrome converts one lane's events (oldest first) into Chrome
// events under the given process, keeping B/E pairs balanced: class ends
// and span ends whose begins were overwritten by ring wraparound are
// dropped so the output always nests.
func appendLaneChrome(out []chromeEvent, pid int, lane int32, events []Event) []chromeEvent {
	tid := chromeTID(lane)
	out = append(out, chromeEvent{
		Name: "thread_name", Phase: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": LaneName(lane)},
	})
	var depth [len(spanClasses)]int
	var spanStack []string // open request-span names, innermost last
	for _, e := range events {
		ts := float64(e.Nanos) / 1e3
		switch e.Kind {
		case KindQueueDepth:
			out = append(out, chromeEvent{
				Name: "queue depth", Phase: "C", TS: ts, PID: pid, TID: tid,
				Args: map[string]any{"depth": e.A},
			})
			continue
		case KindSpanBegin:
			name := SpanKind(e.C).String()
			spanStack = append(spanStack, name)
			out = append(out, chromeEvent{
				Name: name, Phase: "B", TS: ts, PID: pid, TID: tid,
				Args: map[string]any{"span": e.A, "parent": e.B},
			})
			continue
		case KindSpanEnd:
			if n := len(spanStack); n > 0 {
				// Close the innermost open span: spans nest per lane, and
				// reusing the stacked name keeps B/E balanced even if the
				// matching begin's name was lost to wraparound.
				out = append(out, chromeEvent{
					Name: spanStack[n-1], Phase: "E", TS: ts, PID: pid, TID: tid,
				})
				spanStack = spanStack[:n-1]
			}
			continue
		}
		if idx, isBegin, ok := classOf(e.Kind); ok {
			if isBegin {
				depth[idx]++
				out = append(out, chromeEvent{
					Name: spanClasses[idx].name, Phase: "B", TS: ts, PID: pid, TID: tid,
					Args: eventArgs(e),
				})
			} else if depth[idx] > 0 {
				depth[idx]--
				out = append(out, chromeEvent{
					Name: spanClasses[idx].name, Phase: "E", TS: ts, PID: pid, TID: tid,
				})
			}
			continue
		}
		out = append(out, chromeEvent{
			Name: e.Kind.String(), Phase: "i", TS: ts, PID: pid, TID: tid,
			Scope: "t", Args: eventArgs(e),
		})
	}
	return out
}

// WriteChrome writes the recorder's surviving events in Chrome
// trace_event JSON. Spans become balanced B/E pairs per thread (ends
// whose begins were overwritten by ring wraparound are dropped so the
// output always nests), instants become "i" events, and queue-depth
// samples become "C" counter events. A recorder labeled with an
// invocation id (SetInvocation) names its process track after it. The
// file loads directly in chrome://tracing or https://ui.perfetto.dev.
func (r *Recorder) WriteChrome(w io.Writer) error {
	var out []chromeEvent
	if r != nil {
		if inv := r.invocation; inv != "" {
			out = append(out, chromeEvent{
				Name: "process_name", Phase: "M", PID: 0,
				Args: map[string]any{"name": "invocation " + inv},
			})
		}
		for _, t := range r.laneList() {
			out = appendLaneChrome(out, 0, t.lane, t.events())
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: out, DisplayTimeUnit: "ns"})
}

// ChromeProc is one process track of a multi-invocation Chrome export:
// a pid, a display name (typically the invocation id), and the events to
// render under it.
type ChromeProc struct {
	PID    int
	Name   string
	Events []Event
}

// WriteChromeProcs writes several event sets as separate named process
// tracks in one Chrome trace_event file — the flight recorder uses it to
// dump the retained invocation window with each invocation as its own
// track. Events within a proc are grouped by lane (preserving order
// within each lane) and rendered exactly as WriteChrome renders a
// single recorder.
func WriteChromeProcs(w io.Writer, procs []ChromeProc) error {
	var out []chromeEvent
	for _, p := range procs {
		out = append(out, chromeEvent{
			Name: "process_name", Phase: "M", PID: p.PID,
			Args: map[string]any{"name": p.Name},
		})
		var lanes []int32
		byLane := map[int32][]Event{}
		for _, e := range p.Events {
			if _, ok := byLane[e.Lane]; !ok {
				lanes = append(lanes, e.Lane)
			}
			byLane[e.Lane] = append(byLane[e.Lane], e)
		}
		sort.Slice(lanes, func(i, j int) bool { return lanes[i] < lanes[j] })
		for _, lane := range lanes {
			out = appendLaneChrome(out, p.PID, lane, byLane[lane])
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: out, DisplayTimeUnit: "ns"})
}

// inlineArgs names the arguments a guard's inline decision carries, by the
// Chrome thread id of the lane that may emit it: DOMORE's on the scheduler
// lane; SPECCROSS's and the adaptive controller's on the control lane, where
// inline counts epochs (SPECCROSS) or tasks (an adaptive window) and
// engineNs is speculation's rate or the window's engine's price.
var inlineArgs = map[int][]string{
	chromeTID(LaneScheduler): {"iterations", "inlineNs", "schedNs"},
	chromeTID(LaneControl):   {"inline", "inlineNs", "engineNs"},
}

// ValidateChrome checks that data is a structurally sound Chrome
// trace_event file as WriteChrome emits it: a traceEvents array whose
// entries have a name, a known phase, and a non-negative timestamp, and
// whose B/E events balance per thread with matching names (unclosed
// spans at end-of-trace are allowed — a panicked worker legitimately
// leaves one open). An inline instant — the decision of an engine's guard —
// must sit on the scheduler lane (DOMORE's, with its inline iteration
// count) or the control lane (SPECCROSS's, with its inline epoch count),
// and carry both measured rates, none negative. The CI trace job runs this
// (via cmd/tracecheck) against a freshly produced file.
func ValidateChrome(data []byte) error {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("trace: no traceEvents")
	}
	// B/E stacks are per (pid, tid): multi-process files (WriteChromeProcs)
	// legitimately reuse tids across invocation tracks.
	type track struct{ pid, tid int }
	stacks := map[track][]string{}
	for i, e := range f.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("trace: event %d has no name", i)
		}
		tr := track{e.PID, e.TID}
		switch e.Phase {
		case "B":
			stacks[tr] = append(stacks[tr], e.Name)
		case "E":
			st := stacks[tr]
			if len(st) == 0 {
				return fmt.Errorf("trace: event %d: E %q on pid %d tid %d without matching B", i, e.Name, e.PID, e.TID)
			}
			if top := st[len(st)-1]; top != e.Name {
				return fmt.Errorf("trace: event %d: E %q does not match open B %q", i, e.Name, top)
			}
			stacks[tr] = st[:len(st)-1]
		case "i", "C", "M", "X":
			// instant, counter, metadata, complete: no pairing.
			if e.Phase == "i" && e.Name == KindInline.String() {
				args, ok := inlineArgs[e.TID]
				if !ok {
					return fmt.Errorf("trace: event %d: inline decision on tid %d, want the scheduler's or the control lane's", i, e.TID)
				}
				for _, arg := range args {
					if v, ok := e.Args[arg].(float64); !ok || v < 0 {
						return fmt.Errorf("trace: event %d: inline decision without a non-negative %q", i, arg)
					}
				}
			}
		default:
			return fmt.Errorf("trace: event %d has unknown phase %q", i, e.Phase)
		}
		if e.Phase != "M" && e.TS < 0 {
			return fmt.Errorf("trace: event %d has negative timestamp", i)
		}
	}
	return nil
}
