package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// emitRunShape records a miniature engine run: an epoch segment with a
// stall, a task, a misspeculation, and a recovery span.
func emitRunShape(r *Recorder) {
	ctl := r.Lane(LaneControl)
	w0 := r.Lane(0)
	ctl.Emit(KindEpochBegin, 0, 4, 0)
	w0.Emit(KindStallBegin, 1, 9, 0)
	w0.Emit(KindStallEnd, 1, 9, 0)
	w0.Emit(KindTaskStart, 0, 0, 0)
	w0.Emit(KindTaskEnd, 0, 0, 0)
	ctl.Emit(KindMisspec, 1, 0, 4)
	ctl.Emit(KindEpochAbort, 0, 4, 0)
	ctl.Emit(KindRestore, 0, 0, 0)
	ctl.Emit(KindRecoveryBegin, 0, 4, 0)
	ctl.Emit(KindRecoveryEnd, 4, 0, 4)
	ctl.Emit(KindCheckpoint, 4, 0, 0)
}

func TestChromeExportValidates(t *testing.T) {
	r := NewRecorder()
	emitRunShape(r)
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	// The epoch span must close via the abort kind, and the stall and
	// misspeculation must be present — the acceptance criterion is that
	// Chrome shows stall and misspeculation spans.
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, e := range f.TraceEvents {
		names[e["name"].(string)]++
	}
	for _, want := range []string{"epoch", "stall", "task", "misspec", "recovery", "thread_name"} {
		if names[want] == 0 {
			t.Errorf("exported trace missing %q events; have %v", want, names)
		}
	}
}

// TestChromeExportCarriesInlineDecision: DOMORE's guard decision exports
// as an instant on the scheduler's thread, with the inline iteration count
// and both rates named, SPECCROSS's as one on the control thread, with the
// inline epoch count and both rates named, and both validate.
func TestChromeExportCarriesInlineDecision(t *testing.T) {
	r := NewRecorder()
	r.Lane(LaneScheduler).Emit(KindInline, 120, 35, 9)
	r.Lane(LaneControl).Emit(KindInline, 12, 40, 95)
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	var f struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	want := map[int]map[string]any{
		chromeTID(LaneScheduler): {"iterations": 120.0, "inlineNs": 35.0, "schedNs": 9.0},
		chromeTID(LaneControl):   {"inline": 12.0, "inlineNs": 40.0, "engineNs": 95.0},
	}
	for _, e := range f.TraceEvents {
		if e.Name != "inline" {
			continue
		}
		args, ok := want[e.TID]
		if !ok || e.Phase != "i" || len(e.Args) != len(args) {
			t.Fatalf("inline decision exported as %+v", e)
		}
		for k, v := range args {
			if e.Args[k] != v {
				t.Fatalf("inline decision exported as %+v, want %s = %v", e, k, v)
			}
		}
		delete(want, e.TID)
	}
	if len(want) != 0 {
		t.Fatalf("no inline event on tids %v in the export", want)
	}
}

func TestChromeExportDropsOrphanEnds(t *testing.T) {
	// A ring small enough to overwrite the StallBegin must still export
	// a balanced trace (the orphan StallEnd is dropped).
	r := NewRecorderCap(16)
	th := r.Lane(0)
	th.Emit(KindStallBegin, 0, 0, 0)
	for i := 0; i < 40; i++ {
		th.Emit(KindSchedule, 1, 0, int64(i))
	}
	th.Emit(KindStallEnd, 0, 0, 0)
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("overflowed trace does not validate: %v", err)
	}
}

func TestValidateChromeRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":         "{",
		"empty":            `{"traceEvents":[]}`,
		"no name":          `{"traceEvents":[{"ph":"i","ts":1,"pid":0,"tid":0}]}`,
		"unknown phase":    `{"traceEvents":[{"name":"x","ph":"Z","ts":1,"pid":0,"tid":0}]}`,
		"unmatched end":    `{"traceEvents":[{"name":"x","ph":"E","ts":1,"pid":0,"tid":0}]}`,
		"mismatched end":   `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":0,"tid":0},{"name":"b","ph":"E","ts":2,"pid":0,"tid":0}]}`,
		"negative ts":      `{"traceEvents":[{"name":"x","ph":"i","ts":-5,"pid":0,"tid":0}]}`,
		"inline, no rates": `{"traceEvents":[{"name":"inline","ph":"i","ts":1,"pid":0,"tid":2,"args":{"iterations":3}}]}`,
		"inline, negative": `{"traceEvents":[{"name":"inline","ph":"i","ts":1,"pid":0,"tid":2,"args":{"iterations":3,"inlineNs":-1,"schedNs":2}}]}`,
		"inline, worker":   `{"traceEvents":[{"name":"inline","ph":"i","ts":1,"pid":0,"tid":10,"args":{"iterations":3,"inlineNs":1,"schedNs":2}}]}`,
		"inline, control":  `{"traceEvents":[{"name":"inline","ph":"i","ts":1,"pid":0,"tid":1,"args":{"iterations":3,"inlineNs":1,"schedNs":2}}]}`,
	}
	for name, data := range cases {
		if err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: ValidateChrome accepted %q", name, data)
		}
	}
}

func TestValidateChromeAllowsUnclosedSpans(t *testing.T) {
	// A panicked worker leaves a span open; that is legal.
	data := `{"traceEvents":[{"name":"task","ph":"B","ts":1,"pid":0,"tid":10}]}`
	if err := ValidateChrome([]byte(data)); err != nil {
		t.Errorf("unclosed span rejected: %v", err)
	}
}

func TestTimelineOutput(t *testing.T) {
	r := NewRecorder()
	emitRunShape(r)
	var buf bytes.Buffer
	if err := r.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"thread", "control", "worker 0"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}
