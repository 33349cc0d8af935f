package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"crossinv/internal/runtime/adaptive"
)

// DecisionsSchema versions the /debug/decisions document.
const DecisionsSchema = "crossinv-decisions/v3"

// DecisionEntry is one journaled adaptive-controller decision: the
// daemon converts each adaptive.Decision into this flat JSON form,
// stamped with the invocation that caused it. Fields mirror the
// audit record (see internal/runtime/adaptive.Decision).
type DecisionEntry struct {
	Seq        int64  `json:"seq"`
	At         string `json:"at"`
	Invocation string `json:"invocation"`
	Window     int    `json:"window"`
	StartEpoch int    `json:"start_epoch"`
	EndEpoch   int    `json:"end_epoch"`
	Engine     string `json:"engine"`
	Next       string `json:"next"`
	Switched   bool   `json:"switched"`

	Tasks            int64   `json:"tasks"`
	Inline           int64   `json:"inline"`
	ManifestRate     float64 `json:"manifest_rate"`
	Misspeculated    bool    `json:"misspeculated"`
	CheckerPressure  float64 `json:"checker_pressure"`
	PrefilterHitRate float64 `json:"prefilter_hit_rate"`

	WindowNs   int64 `json:"window_ns"`
	BoundaryNs int64 `json:"boundary_ns"`

	InlineNs float64 `json:"inline_ns"`
	EngineNs float64 `json:"engine_ns"`

	Reason     string `json:"reason"`
	SeedSource string `json:"seed_source,omitempty"`

	RuntimeReused  bool `json:"runtime_reused"`
	RuntimeThreads int  `json:"runtime_threads"`
	CheckerShards  int  `json:"checker_shards"`
}

// DecisionFromAudit flattens one adaptive audit record into the
// journal's JSON form, stamped with the invocation that caused it. The
// daemon journals through it; `crossinv -explain` renders the same
// shape for local runs.
func DecisionFromAudit(invocation string, d adaptive.Decision) DecisionEntry {
	return DecisionEntry{
		Invocation:       invocation,
		Window:           d.Window,
		StartEpoch:       d.Sample.StartEpoch,
		EndEpoch:         d.Sample.EndEpoch,
		Engine:           d.Sample.Engine.String(),
		Next:             d.Next.String(),
		Switched:         d.Switched,
		Tasks:            d.Sample.Tasks,
		Inline:           d.Sample.Inline,
		ManifestRate:     d.Sample.ManifestRate,
		Misspeculated:    d.Sample.Misspeculated,
		CheckerPressure:  d.Sample.CheckerPressure,
		PrefilterHitRate: d.Sample.PrefilterHitRate,
		WindowNs:         d.WindowNs,
		BoundaryNs:       d.BoundaryNs,
		InlineNs:         d.InlineNs,
		EngineNs:         d.EngineNs,
		Reason:           d.Reason,
		SeedSource:       d.SeedSource,
		RuntimeReused:    d.RuntimeReused,
		RuntimeThreads:   d.RuntimeThreads,
		CheckerShards:    d.CheckerShards,
	}
}

// DecisionLog is the bounded in-memory journal behind /debug/decisions:
// a ring of the most recent entries, safe for concurrent append (request
// goroutines) and snapshot (scrapers, flight-recorder dumps).
type DecisionLog struct {
	mu   sync.Mutex
	cap  int
	buf  []DecisionEntry
	next int // ring write cursor
	n    int64
}

// DefaultDecisionCap is the journal depth NewDecisionLog(0) uses — a few
// hundred windows of history, enough to cover every window of the
// flight recorder's retained invocations.
const DefaultDecisionCap = 512

// NewDecisionLog returns a journal retaining the last cap entries
// (DefaultDecisionCap when cap <= 0).
func NewDecisionLog(cap int) *DecisionLog {
	if cap <= 0 {
		cap = DefaultDecisionCap
	}
	return &DecisionLog{cap: cap, buf: make([]DecisionEntry, 0, cap)}
}

// Append journals one decision, stamping its sequence number and wall
// time. The oldest entry is evicted once the ring is full.
func (l *DecisionLog) Append(e DecisionEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	e.Seq = l.n
	if e.At == "" {
		e.At = time.Now().UTC().Format(time.RFC3339Nano)
	}
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, e)
		return
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % l.cap
}

// Snapshot returns the retained entries oldest-first, filtered to one
// invocation when invocation is non-empty.
func (l *DecisionLog) Snapshot(invocation string) []DecisionEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]DecisionEntry, 0, len(l.buf))
	for i := 0; i < len(l.buf); i++ {
		e := l.buf[(l.next+i)%len(l.buf)]
		if invocation == "" || e.Invocation == invocation {
			out = append(out, e)
		}
	}
	return out
}

// decisionsDoc is the /debug/decisions JSON document.
type decisionsDoc struct {
	Schema  string          `json:"schema"`
	Total   int64           `json:"total"`
	Entries []DecisionEntry `json:"entries"`
}

// Handler serves the journal as JSON. `?invocation=<id>` filters to one
// request's decisions — what `crossinv -explain` fetches after a remote
// run.
func (l *DecisionLog) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		entries := l.Snapshot(r.URL.Query().Get("invocation"))
		l.mu.Lock()
		total := l.n
		l.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(decisionsDoc{Schema: DecisionsSchema, Total: total, Entries: entries})
	}
}
