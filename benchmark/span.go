package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the call. Spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory until the run ends. A nil
// *tracer is the untraced pass: begin returns an inert handle and nothing
// is recorded, so the measured pass pays one nil check per call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	nextOp atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates an operation id (0 on a nil tracer).
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// open is a started span.
type open struct {
	t *tracer
	s span
}

func (t *tracer) begin(name string, op, parent int64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, s: span{
		Name: name, Op: op, ID: t.nextID.Add(1), Parent: parent,
		Start: int64(time.Since(t.t0)),
	}}
}

func (o open) id() int64 { return o.s.ID }

// end closes the span and returns its duration (0 on an inert handle).
func (o open) end() time.Duration {
	if o.t == nil {
		return 0
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return time.Duration(o.s.End - o.s.Start)
}

// add records a span whose interval was measured elsewhere (a span the
// daemon reported for one request), relative to the caller's own clock
// reading start.
func (t *tracer) add(name string, op, parent int64, start time.Time, dur time.Duration) int64 {
	if t == nil {
		return 0
	}
	s := span{Name: name, Op: op, ID: t.nextID.Add(1), Parent: parent, Start: int64(start.Sub(t.t0))}
	s.End = s.Start + int64(dur)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// spanTotals aggregates spans of one name.
type spanTotals struct {
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the total minus the part covered by child spans.
	SelfMs float64 `json:"self_ms"`
}

// totals returns per-name aggregates with self time (choosing-metrics §4:
// a span's duration minus the part of that interval its children cover;
// children of one parent are sequential here, so their durations add).
func (t *tracer) totals() map[string]spanTotals {
	out := map[string]spanTotals{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		a := out[s.Name]
		d := s.End - s.Start
		a.Count++
		a.TotalMs += float64(d) / 1e6
		a.SelfMs += float64(d-child[s.ID]) / 1e6
		out[s.Name] = a
	}
	return out
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"crossinv-benchmark-trace/v1", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
