package daemon

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crossinv/internal/obs"
	"crossinv/internal/runtime/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// obsPipe carries a cross-invocation dependence four epochs back: the
// static verdict is forward-only and the §4.4 profile finds distance 4,
// so adaptive (4 workers) starts speculating under the unpinned
// threshold policy — exactly the regime where a forced misspeculation
// makes the controller switch and explain itself. 64 epochs / window 16
// = exactly 4 adaptive windows, which the tests below pin.
const obsPipe = `func pipe() {
  var A[600]
  for t = 4 .. 68 {
    parfor i = 0 .. 8 {
      A[t*8 + i] = A[(t-4)*8 + i] * 3 + 1
    }
  }
}
`

// obsRun is the forced-misspec invocation every observability test
// drives: one rollback at epoch 10, recovered and re-verified. Misspec
// alone bypasses the result cache; Fresh says what these tests are for —
// the engines' spans, events and decisions, however often they repeat it.
func obsRun() *RunRequest {
	return &RunRequest{Source: obsPipe, Mode: "adaptive", Workers: 4, Window: 16, Misspec: 10, Fresh: true}
}

// TestRequestObservability is the tentpole acceptance test, end to end
// over HTTP: a forced-misspec /run yields a response carrying its
// invocation id and exact misspec count, a /debug/decisions entry per
// adaptive window (filterable by that id), a flight-recorder dump on
// disk whose Chrome artifact validates and names the invocation's
// track, and a /debug/flightrec window entry holding the span skeleton
// including the admission span only the HTTP path adds.
func TestRequestObservability(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, Config{FlightDir: dir})
	h := s.Handler()

	body, err := json.Marshal(obsRun())
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/run", bytes.NewReader(body)))
	if rr.Code != 200 {
		t.Fatalf("/run: %d %s", rr.Code, rr.Body.String())
	}
	var resp RunResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Invocation == "" {
		t.Fatalf("response lacks invocation identity: %+v", resp)
	}
	if resp.Misspecs < 1 {
		t.Fatalf("forced misspeculation not reflected: %+v", resp)
	}

	// Decision audit: one journal entry per window, filtered by id, with
	// the misspeculating window explained.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/decisions?invocation="+resp.Invocation, nil))
	var decisions struct {
		Schema  string              `json:"schema"`
		Entries []obs.DecisionEntry `json:"entries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &decisions); err != nil {
		t.Fatal(err)
	}
	if decisions.Schema != obs.DecisionsSchema {
		t.Errorf("decisions schema = %q", decisions.Schema)
	}
	if len(decisions.Entries) != 4 {
		t.Fatalf("decision entries = %d, want 4 (64 epochs / window 16)", len(decisions.Entries))
	}
	sawMisspec := false
	for i, e := range decisions.Entries {
		if e.Invocation != resp.Invocation || e.Window != i || e.Reason == "" {
			t.Errorf("entry %d malformed: %+v", i, e)
		}
		if e.Misspeculated {
			sawMisspec = true
			if !e.Switched || e.Next != "domore" || !strings.Contains(e.Reason, "misspeculated") {
				t.Errorf("misspec window not explained: %+v", e)
			}
		}
	}
	if !sawMisspec {
		t.Fatal("no decision covered the forced misspeculation")
	}

	// Flight recorder: the misspec-storm dump exists on disk, its JSON
	// artifact is schema-tagged with full spans, and its Chrome artifact
	// validates and names the invocation's track.
	matches, _ := filepath.Glob(filepath.Join(dir, "flightrec-*-"+obs.TriggerMisspec+".json"))
	if len(matches) != 1 {
		t.Fatalf("misspec dump files = %v, want exactly one", matches)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Schema     string           `json:"schema"`
		Invocation string           `json:"invocation"`
		FullSpans  []trace.SpanInfo `json:"full_spans"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Schema != obs.FlightSchema || dump.Invocation != resp.Invocation {
		t.Errorf("dump doc = %+v", dump)
	}
	if len(dump.FullSpans) == 0 {
		t.Error("dump has no full spans")
	}
	tdata, err := os.ReadFile(strings.TrimSuffix(matches[0], ".json") + ".trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(tdata); err != nil {
		t.Errorf("chrome dump invalid: %v", err)
	}
	if !strings.Contains(string(tdata), "invocation "+resp.Invocation) {
		t.Error("chrome dump does not name the invocation track")
	}

	// /debug/flightrec: the window retains the invocation with its span
	// skeleton, including the admission span only handleRun adds.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flightrec", nil))
	var doc struct {
		Schema   string                 `json:"schema"`
		Triggers map[string]int64       `json:"triggers"`
		Window   []obs.FlightInvocation `json:"window"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != obs.FlightSchema || doc.Triggers[obs.TriggerMisspec] != 1 {
		t.Errorf("flightrec doc = %+v", doc)
	}
	found := false
	for _, fi := range doc.Window {
		if fi.ID != resp.Invocation {
			continue
		}
		found = true
		if fi.Misspecs != resp.Misspecs || fi.Engine != "adaptive" {
			t.Errorf("window entry diverges from response: %+v", fi)
		}
		kinds := map[string]bool{}
		for _, sp := range fi.Spans {
			kinds[sp.Kind] = true
		}
		for _, want := range []string{"invocation", "admission", "cache.lookup", "window", "execute"} {
			if !kinds[want] {
				t.Errorf("window entry missing %q span: have %v", want, kinds)
			}
		}
		if len(fi.Decisions) != 4 {
			t.Errorf("window entry carries %d decisions, want 4", len(fi.Decisions))
		}
	}
	if !found {
		t.Error("flight window lost the invocation")
	}
}

// TestExecuteTracedSpanTree pins the span tree an in-process invocation
// produces: one root, the analysis stages parented under it (the program's
// one plan span, its Lint, beside compile), and one
// closed window span per adaptive window parented under the execute
// span.
func TestExecuteTracedSpanTree(t *testing.T) {
	s := newServer(t, Config{})
	resp, status, events := s.ExecuteTraced(obsRun())
	if status != 200 || !resp.OK {
		t.Fatalf("run failed: %d %+v", status, resp)
	}
	spans := trace.SpansFromEvents(events)
	byKind := map[string][]trace.SpanInfo{}
	for _, sp := range spans {
		if sp.EndNs == 0 {
			t.Errorf("span %s left open", sp.Kind)
		}
		byKind[sp.Kind] = append(byKind[sp.Kind], sp)
	}
	if len(byKind["invocation"]) != 1 || byKind["invocation"][0].Parent != 0 {
		t.Fatalf("want one root invocation span: %+v", byKind["invocation"])
	}
	root := byKind["invocation"][0].ID
	for _, kind := range []string{"compile", "plan", "cache.lookup", "oracle", "profile", "execute"} {
		got := byKind[kind]
		if len(got) != 1 || got[0].Parent != root {
			t.Errorf("%s spans = %+v, want one under root %d", kind, got, root)
		}
	}
	exec := byKind["execute"][0].ID
	if wins := byKind["window"]; len(wins) != 4 {
		t.Errorf("window spans = %d, want 4", len(wins))
	} else {
		for _, w := range wins {
			if w.Parent != exec {
				t.Errorf("window span parent = %d, want execute %d", w.Parent, exec)
			}
		}
	}
}

// TestChromeExportGolden locks the Chrome trace a daemon request
// exports: the span-phase event sequence is deterministic for the
// fixed-window forced-misspec run, so it is kept as a golden file
// (regenerate with -update). The full document must also pass
// tracecheck's validator and name the invocation's track.
func TestChromeExportGolden(t *testing.T) {
	s := newServer(t, Config{})
	resp, status, events := s.ExecuteTraced(obsRun())
	if status != 200 {
		t.Fatalf("run failed: %d %+v", status, resp)
	}
	var buf bytes.Buffer
	err := trace.WriteChromeProcs(&buf, []trace.ChromeProc{
		{PID: 0, Name: "invocation " + resp.Invocation, Events: events},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if !strings.Contains(buf.String(), "invocation "+resp.Invocation) {
		t.Error("export does not name the invocation track")
	}

	// Distill the deterministic skeleton: begin/end phases of the named
	// spans, in document order, ignoring timestamps and engine events.
	var raw struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	spanNames := map[string]bool{
		"invocation": true, "admission": true, "cache.lookup": true,
		"compile": true, "oracle": true, "profile": true, "plan": true,
		"window": true, "execute": true,
	}
	var lines []string
	for _, e := range raw.TraceEvents {
		if (e.Ph == "B" || e.Ph == "E") && spanNames[e.Name] {
			lines = append(lines, e.Ph+" "+e.Name)
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "chrome_spans.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("span skeleton diverged from golden (rerun with -update if intended):\ngot:\n%swant:\n%s", got, want)
	}
}

// TestDisableTracing pins the baseline mode: no recorder, no spans, no
// misspec counters — but invocation identity and the decision audit
// (which reads engine stats, not the trace) still work.
func TestDisableTracing(t *testing.T) {
	s := newServer(t, Config{DisableTracing: true})
	resp, status, events := s.ExecuteTraced(obsRun())
	if status != 200 || !resp.OK {
		t.Fatalf("run failed: %d %+v", status, resp)
	}
	if resp.Invocation == "" {
		t.Error("invocation id lost without tracing")
	}
	if len(events) != 0 {
		t.Errorf("tracing disabled but %d events captured", len(events))
	}
	if resp.Misspecs != 0 {
		t.Errorf("misspec counter without a recorder: %d", resp.Misspecs)
	}
	entries := s.Decisions().Snapshot(resp.Invocation)
	if len(entries) != 4 {
		t.Fatalf("decision entries = %d, want 4 without tracing", len(entries))
	}
	saw := false
	for _, e := range entries {
		if e.Misspeculated {
			saw = true
		}
	}
	if !saw {
		t.Error("stats-path sampling lost the forced misspeculation")
	}
}

// TestAdmissionTimeoutDump pins the external trigger: a request that
// waits out the admission queue produces a 429 carrying its invocation
// id and an admission-timeout dump.
func TestAdmissionTimeoutDump(t *testing.T) {
	s := newServer(t, Config{MaxInFlight: 1, QueueDepth: 1, QueueTimeout: 10 * time.Millisecond})
	h := s.Handler()

	// Occupy the only slot.
	s.inflight <- struct{}{}
	defer func() { <-s.inflight }()

	body, _ := json.Marshal(&RunRequest{Source: obsPipe, Mode: "seq"})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/run", bytes.NewReader(body)))
	if rr.Code != 429 {
		t.Fatalf("status = %d, want 429", rr.Code)
	}
	var resp RunResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Invocation == "" {
		t.Error("rejected request lacks invocation id")
	}
	found := false
	for _, d := range s.Flight().Dumps() {
		if d.Trigger == obs.TriggerAdmissionTimeout && d.Invocation == resp.Invocation {
			found = true
		}
	}
	if !found {
		t.Errorf("no admission-timeout dump for %s: %+v", resp.Invocation, s.Flight().Dumps())
	}
}
