package obs

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crossinv/internal/runtime/trace"
)

// spanEvents builds a tiny invocation's span skeleton on a real recorder
// so flight artifacts exercise the same event shapes the daemon retains.
func spanEvents(id string) []trace.Event {
	r := trace.NewRecorderCap(64)
	r.SetInvocation(id)
	lane := r.Lane(trace.LaneRequest)
	root := lane.BeginSpan(trace.SpanInvocation, 0)
	ex := lane.BeginSpan(trace.SpanExecute, root.ID())
	ex.End()
	root.End()
	return r.Events()
}

// TestDecisionLogRingAndFilter covers the journal: bounded retention,
// sequence stamping, and the per-invocation filter the -explain client
// uses.
func TestDecisionLogRingAndFilter(t *testing.T) {
	l := NewDecisionLog(4)
	for i := 0; i < 6; i++ {
		inv := "inv-a"
		if i%2 == 1 {
			inv = "inv-b"
		}
		l.Append(DecisionEntry{Invocation: inv, Window: i, Engine: "domore", Reason: "r"})
	}
	all := l.Snapshot("")
	if len(all) != 4 {
		t.Fatalf("retained %d entries, want 4", len(all))
	}
	if all[0].Window != 2 || all[3].Window != 5 {
		t.Errorf("ring order wrong: %+v", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq != all[i-1].Seq+1 {
			t.Errorf("non-consecutive seq: %+v", all)
		}
	}
	b := l.Snapshot("inv-b")
	if len(b) != 2 {
		t.Fatalf("filter returned %d entries, want 2", len(b))
	}
	for _, e := range b {
		if e.Invocation != "inv-b" {
			t.Errorf("filter leaked %+v", e)
		}
	}

	// Handler shape: schema + filter wiring.
	rr := httptest.NewRecorder()
	l.Handler()(rr, httptest.NewRequest("GET", "/debug/decisions?invocation=inv-b", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc struct {
		Schema  string          `json:"schema"`
		Total   int64           `json:"total"`
		Entries []DecisionEntry `json:"entries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != DecisionsSchema || doc.Total != 6 || len(doc.Entries) != 2 {
		t.Errorf("doc = %+v", doc)
	}
}

// TestFlightRecorderTriggers covers each anomaly path: healthy
// invocations stay quiet; misspeculation, checker pressure, 5xx, and
// external admission timeouts dump; the dump artifacts are valid JSON
// and a tracecheck-clean Chrome file.
func TestFlightRecorderTriggers(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(FlightConfig{Dir: dir})

	if trig := f.Observe(FlightInvocation{ID: "inv-ok", Status: 200, DurNs: 1000, Tasks: 10}, nil); trig != "" {
		t.Fatalf("healthy invocation triggered %q", trig)
	}

	fullCalled := false
	trig := f.Observe(FlightInvocation{
		ID: "inv-bad", Status: 200, DurNs: 2000, Misspecs: 2, Tasks: 10,
		Events: spanEvents("inv-bad"),
	}, func() []trace.Event {
		fullCalled = true
		return spanEvents("inv-bad")
	})
	if trig != TriggerMisspec {
		t.Fatalf("misspec trigger = %q", trig)
	}
	if !fullCalled {
		t.Error("full-capture callback not invoked on trigger")
	}

	// 64 comparisons per task sits on the bound; one more goes over it.
	if trig := f.Observe(FlightInvocation{ID: "inv-at", Status: 200, Tasks: 10, Comparisons: 640}, nil); trig != "" {
		t.Errorf("pressure at the bound triggered %q", trig)
	}
	if trig := f.Observe(FlightInvocation{ID: "inv-press", Status: 200, Tasks: 10, Comparisons: 650}, nil); trig != TriggerCheckerPressure {
		t.Errorf("pressure trigger = %q", trig)
	}
	if trig := f.Observe(FlightInvocation{ID: "inv-500", Status: 500}, nil); trig != Trigger5xx {
		t.Errorf("5xx trigger = %q", trig)
	}
	f.RecordTrigger(TriggerAdmissionTimeout, "queue wait exceeded 100ms", "")

	dumps := f.Dumps()
	if len(dumps) != 4 {
		t.Fatalf("dumps = %d, want 4: %+v", len(dumps), dumps)
	}
	for _, d := range dumps {
		if d.Path == "" || d.TracePath == "" {
			t.Fatalf("dump %d missing artifact paths: %+v", d.Seq, d)
		}
		data, err := os.ReadFile(d.Path)
		if err != nil {
			t.Fatal(err)
		}
		var dump struct {
			Schema  string             `json:"schema"`
			Trigger string             `json:"trigger"`
			Window  []FlightInvocation `json:"window"`
		}
		if err := json.Unmarshal(data, &dump); err != nil {
			t.Fatalf("dump %s: %v", d.Path, err)
		}
		if dump.Schema != FlightSchema || dump.Trigger != d.Trigger {
			t.Errorf("dump doc = %+v", dump)
		}
		tdata, err := os.ReadFile(d.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.ValidateChrome(tdata); err != nil {
			t.Errorf("dump %s: %v", d.TracePath, err)
		}
	}

	// The misspec dump's Chrome file names the anomalous invocation's
	// track and carries full spans in the JSON artifact.
	var misspec DumpInfo
	for _, d := range dumps {
		if d.Trigger == TriggerMisspec {
			misspec = d
		}
	}
	tdata, _ := os.ReadFile(misspec.TracePath)
	if !strings.Contains(string(tdata), "invocation inv-bad") {
		t.Error("chrome dump does not name the invocation track")
	}
	jdata, _ := os.ReadFile(misspec.Path)
	var dump flightDump
	if err := json.Unmarshal(jdata, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.FullSpans) == 0 {
		t.Error("misspec dump has no full spans")
	}

	// Filenames follow the flightrec-<seq>-<trigger> convention.
	matches, _ := filepath.Glob(filepath.Join(dir, "flightrec-*-"+TriggerMisspec+".json"))
	if len(matches) != 1 {
		t.Errorf("misspec dump file not found: %v", matches)
	}
}

// TestFlightRecorderLatencyTrigger pins the p99 breach path: it needs
// minSamples history, an over-budget invocation, and respects the
// cooldown between dumps.
func TestFlightRecorderLatencyTrigger(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{LatencyBudget: time.Millisecond})
	// Seed history entirely over budget so p99 breaches once judged.
	for i := 0; i < minSamples-1; i++ {
		if trig := f.Observe(FlightInvocation{Status: 200, DurNs: int64(2 * time.Millisecond)}, nil); trig != "" {
			t.Fatalf("triggered %q before minSamples", trig)
		}
	}
	if trig := f.Observe(FlightInvocation{ID: "inv-slow", Status: 200, DurNs: int64(3 * time.Millisecond)}, nil); trig != TriggerLatencyP99 {
		t.Fatalf("latency trigger = %q", trig)
	}
	// Cooldown suppresses an immediate second dump.
	if trig := f.Observe(FlightInvocation{Status: 200, DurNs: int64(3 * time.Millisecond)}, nil); trig != "" {
		t.Errorf("cooldown did not suppress: %q", trig)
	}
}

// TestFlightRecorderHandler covers the /debug/flightrec JSON shape and
// the manual ?dump=1 path (in-memory only: no Dir configured).
func TestFlightRecorderHandler(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{})
	f.Observe(FlightInvocation{ID: "inv-1", Status: 200, DurNs: 500, Spans: trace.SpansFromEvents(spanEvents("inv-1"))}, nil)

	rr := httptest.NewRecorder()
	f.Handler()(rr, httptest.NewRequest("GET", "/debug/flightrec?dump=1", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc flightDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != FlightSchema || doc.Total != 1 || len(doc.Window) != 1 {
		t.Errorf("doc = %+v", doc)
	}
	if doc.Triggers[TriggerManual] != 1 || len(doc.Dumps) != 1 {
		t.Errorf("manual dump not recorded: %+v", doc)
	}
	if doc.Window[0].ID != "inv-1" || len(doc.Window[0].Spans) == 0 {
		t.Errorf("window entry lost spans: %+v", doc.Window[0])
	}
}
