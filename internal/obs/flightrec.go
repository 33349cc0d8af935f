package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crossinv/internal/runtime/trace"
)

// FlightSchema versions the /debug/flightrec document and the on-disk
// dump artifact.
const FlightSchema = "crossinv-flightrec/v1"

// Flight-recorder triggers. A dump carries the one that fired it.
const (
	TriggerMisspec          = "misspec-storm"
	TriggerCheckerPressure  = "checker-pressure"
	TriggerAdmissionTimeout = "admission-timeout"
	TriggerLatencyP99       = "latency-p99"
	Trigger5xx              = "5xx"
	TriggerManual           = "manual"
)

// FlightConfig tunes the always-on flight recorder.
type FlightConfig struct {
	// Dir is where dump artifacts are written; empty disables disk dumps
	// (the in-memory window and /debug/flightrec still work).
	Dir string
	// LatencyBudget, when positive, arms the p99 trigger: an invocation
	// over budget while the observed p99 also exceeds it fires a dump.
	LatencyBudget time.Duration
}

// The flight recorder's fixed bounds.
const (
	// flightCap is how many recent invocations the rolling window retains.
	flightCap = 32
	// misspecMin is the per-invocation misspeculation count at or above
	// which the misspec-storm trigger fires.
	misspecMin = 1
	// pressureMax is the checker comparisons-per-task bound above which
	// the checker-pressure trigger fires.
	pressureMax float64 = 64
	// minSamples is how many latency observations must accumulate before
	// the p99 trigger is judged.
	minSamples = 32
	// cooldown is the minimum spacing between latency-p99 dumps, keeping a
	// sustained breach from dumping on every request. The other triggers
	// are not throttled: they are rare by construction and CI depends on a
	// forced misspeculation always dumping.
	cooldown = 5 * time.Second
)

// FlightInvocation is one invocation's footprint in the rolling window:
// identity, outcome, the counters the triggers judge, its span events
// (cheap — a few dozen per request), and the decisions its adaptive run
// journaled. Spans is derived from Events at observation time so the
// JSON surface is self-contained.
type FlightInvocation struct {
	ID     string `json:"invocation"`
	Mode   string `json:"mode,omitempty"`
	Engine string `json:"engine,omitempty"`
	Cache  string `json:"cache,omitempty"`
	Status int    `json:"status"`
	DurNs  int64  `json:"dur_ns"`

	Misspecs        int64 `json:"misspecs,omitempty"`
	Tasks           int64 `json:"tasks,omitempty"`
	Comparisons     int64 `json:"comparisons,omitempty"`
	PrefilterChecks int64 `json:"prefilter_checks,omitempty"`
	PrefilterHits   int64 `json:"prefilter_hits,omitempty"`

	Spans     []trace.SpanInfo `json:"spans,omitempty"`
	Decisions []DecisionEntry  `json:"decisions,omitempty"`

	// Events backs the Chrome track of dump artifacts (span begin/end
	// plus whatever cheap events the caller retained); not serialized.
	Events []trace.Event `json:"-"`
}

// DumpInfo indexes one written dump artifact.
type DumpInfo struct {
	Seq        int    `json:"seq"`
	Trigger    string `json:"trigger"`
	Reason     string `json:"reason"`
	Invocation string `json:"invocation"`
	At         string `json:"at"`
	Path       string `json:"path,omitempty"`
	TracePath  string `json:"trace_path,omitempty"`
}

// FlightRecorder keeps a rolling window of recent invocations and dumps
// a self-contained artifact (JSON + Chrome trace) when an anomaly
// trigger fires. It is always on: the per-invocation cost is one ring
// slot of span events and a histogram observation; the full event
// capture only happens for the invocation that trips a trigger.
type FlightRecorder struct {
	cfg FlightConfig

	mu       sync.Mutex
	ring     []FlightInvocation
	next     int
	total    int64
	hist     trace.Histogram // invocation latency, ns
	triggers map[string]int64
	dumps    []DumpInfo
	seq      int
	lastP99  time.Time
}

// NewFlightRecorder returns a recorder for the config.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	return &FlightRecorder{cfg: cfg, triggers: map[string]int64{}}
}

// Observe records one finished invocation, evaluates the anomaly
// triggers, and dumps if one fires. full, when non-nil, is called only
// on a trigger to capture the complete event rings of the anomalous
// invocation before its recorder is recycled. It returns the trigger
// that fired ("" for a healthy invocation).
func (f *FlightRecorder) Observe(fi FlightInvocation, full func() []trace.Event) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hist.Observe(fi.DurNs)
	f.total++
	if len(f.ring) < flightCap {
		f.ring = append(f.ring, fi)
	} else {
		f.ring[f.next] = fi
		f.next = (f.next + 1) % flightCap
	}

	trigger, reason := f.judge(fi)
	if trigger == "" {
		return ""
	}
	f.triggers[trigger]++
	var fullEvents []trace.Event
	if full != nil {
		fullEvents = full()
	}
	f.dumpLocked(trigger, reason, fi.ID, fullEvents)
	return trigger
}

// judge evaluates the per-invocation triggers; the caller holds f.mu.
func (f *FlightRecorder) judge(fi FlightInvocation) (trigger, reason string) {
	switch {
	case fi.Status >= 500:
		return Trigger5xx, fmt.Sprintf("status %d", fi.Status)
	case fi.Misspecs >= misspecMin:
		return TriggerMisspec, fmt.Sprintf("%d misspeculations (threshold %d)", fi.Misspecs, misspecMin)
	case fi.Tasks > 0 && float64(fi.Comparisons)/float64(fi.Tasks) > pressureMax:
		return TriggerCheckerPressure, fmt.Sprintf("%.1f comparisons/task (threshold %.1f)",
			float64(fi.Comparisons)/float64(fi.Tasks), pressureMax)
	}
	if b := f.cfg.LatencyBudget; b > 0 && fi.DurNs > int64(b) && f.hist.Count >= minSamples {
		if p99 := f.hist.Quantile(0.99); p99 > int64(b) && time.Since(f.lastP99) >= cooldown {
			f.lastP99 = time.Now()
			return TriggerLatencyP99, fmt.Sprintf("invocation %s over budget %s with p99 %s",
				time.Duration(fi.DurNs), b, time.Duration(p99))
		}
	}
	return "", ""
}

// RecordTrigger fires an external trigger — the daemon calls it for
// admission-queue timeouts, where no invocation ever starts — dumping
// the current window.
func (f *FlightRecorder) RecordTrigger(trigger, reason, invocation string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.triggers[trigger]++
	f.dumpLocked(trigger, reason, invocation, nil)
}

// windowLocked returns the retained invocations oldest-first.
func (f *FlightRecorder) windowLocked() []FlightInvocation {
	out := make([]FlightInvocation, 0, len(f.ring))
	for i := 0; i < len(f.ring); i++ {
		out = append(out, f.ring[(f.next+i)%len(f.ring)])
	}
	return out
}

// flightDump is the on-disk JSON artifact: the trigger, the window at
// dump time, and (for invocation-scoped triggers) the full span list of
// the anomalous invocation.
type flightDump struct {
	Schema     string             `json:"schema"`
	Seq        int                `json:"seq"`
	Trigger    string             `json:"trigger"`
	Reason     string             `json:"reason"`
	Invocation string             `json:"invocation,omitempty"`
	At         string             `json:"at"`
	Window     []FlightInvocation `json:"window"`
	FullSpans  []trace.SpanInfo   `json:"full_spans,omitempty"`
}

// dumpLocked writes the JSON + Chrome artifacts; the caller holds f.mu.
// fullEvents, when present, are the complete rings of the triggering
// invocation and become its Chrome track in place of the span skeleton.
func (f *FlightRecorder) dumpLocked(trigger, reason, invocation string, fullEvents []trace.Event) {
	f.seq++
	info := DumpInfo{
		Seq: f.seq, Trigger: trigger, Reason: reason, Invocation: invocation,
		At: time.Now().UTC().Format(time.RFC3339Nano),
	}
	window := f.windowLocked()
	if f.cfg.Dir != "" {
		if err := os.MkdirAll(f.cfg.Dir, 0o755); err == nil {
			base := fmt.Sprintf("flightrec-%04d-%s", f.seq, trigger)
			jsonPath := filepath.Join(f.cfg.Dir, base+".json")
			dump := flightDump{
				Schema: FlightSchema, Seq: f.seq, Trigger: trigger, Reason: reason,
				Invocation: invocation, At: info.At, Window: window,
				FullSpans: trace.SpansFromEvents(fullEvents),
			}
			if data, err := json.MarshalIndent(dump, "", "  "); err == nil {
				if err := os.WriteFile(jsonPath, data, 0o644); err == nil {
					info.Path = jsonPath
				}
			}
			tracePath := filepath.Join(f.cfg.Dir, base+".trace.json")
			var procs []trace.ChromeProc
			for i, fi := range window {
				ev := fi.Events
				if fi.ID != "" && fi.ID == invocation && fullEvents != nil {
					ev = fullEvents
				}
				procs = append(procs, trace.ChromeProc{
					PID: i, Name: "invocation " + fi.ID, Events: ev,
				})
			}
			if tf, err := os.Create(tracePath); err == nil {
				if err := trace.WriteChromeProcs(tf, procs); err == nil {
					info.TracePath = tracePath
				}
				_ = tf.Close()
			}
		}
	}
	f.dumps = append(f.dumps, info)
	if len(f.dumps) > 64 {
		f.dumps = f.dumps[len(f.dumps)-64:]
	}
}

// Counters snapshots the flight recorder's /metrics contribution: total
// observed invocations, dumps written, and one counter per fired
// trigger.
func (f *FlightRecorder) Counters() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]int64{
		"flightrec.observed": f.total,
		"flightrec.dumps":    int64(f.seq),
	}
	for k, v := range f.triggers {
		out["flightrec.trigger."+k] = v
	}
	return out
}

// Dumps returns the index of written dumps, oldest first.
func (f *FlightRecorder) Dumps() []DumpInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]DumpInfo(nil), f.dumps...)
}

// flightDoc is the /debug/flightrec JSON document.
type flightDoc struct {
	Schema       string             `json:"schema"`
	Total        int64              `json:"total"`
	LatencyP50Ns int64              `json:"latency_p50_ns"`
	LatencyP99Ns int64              `json:"latency_p99_ns"`
	Triggers     map[string]int64   `json:"triggers"`
	Window       []FlightInvocation `json:"window"`
	Dumps        []DumpInfo         `json:"dumps"`
}

// Handler serves the rolling window, trigger counts, and dump index as
// JSON. `?dump=1` forces a manual dump first (and reports it), which is
// how an operator snapshots a live daemon without waiting for an
// anomaly.
func (f *FlightRecorder) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("dump") != "" {
			f.RecordTrigger(TriggerManual, "operator requested", "")
		}
		f.mu.Lock()
		doc := flightDoc{
			Schema:       FlightSchema,
			Total:        f.total,
			LatencyP50Ns: f.hist.Quantile(0.5),
			LatencyP99Ns: f.hist.Quantile(0.99),
			Triggers:     map[string]int64{},
			Window:       f.windowLocked(),
			Dumps:        append([]DumpInfo(nil), f.dumps...),
		}
		for k, v := range f.triggers {
			doc.Triggers[k] = v
		}
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	}
}
