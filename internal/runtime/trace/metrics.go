package trace

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// Histogram is a power-of-two-bucketed distribution: value v lands in
// bucket bits.Len64(v), so bucket i covers [2^(i-1), 2^i). It records
// count, sum, min, and max exactly; quantiles are bucket-resolution
// approximations. Values are nanoseconds for duration histograms and
// plain counts for depth histograms.
//
// Observe, Mean, Quantile, and Snapshot synchronize on an internal mutex,
// so concurrent observers and scrapers (crossinv -serve) are safe. The
// exported fields remain directly readable for quiescent consumers such as
// tests; only touch them while no Observe runs.
type Histogram struct {
	mu      sync.Mutex
	Buckets [65]int64
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
}

// Observe adds one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	h.Buckets[bits.Len64(uint64(v))]++
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	Buckets [65]int64
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
}

// Snapshot returns a consistent copy, safe against concurrent Observe.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{Buckets: h.Buckets, Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound of the q-quantile at bucket resolution:
// the upper edge of the bucket containing it, clamped to the observed
// maximum (so the top bucket — whose nominal edge would overflow int64 for
// values at or above 2^62 — reports Max, and q=1 is exactly Max). q is
// clamped to [0, 1]; an empty histogram reports 0. The result is monotone
// non-decreasing in q.
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	if rank < 0 {
		rank = 0
	}
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			// Bucket i covers [2^(i-1), 2^i); its upper edge overflows
			// int64 for i >= 63, and no observed value exceeds Max, so the
			// clamped edge is the tighter (and overflow-free) upper bound.
			if i >= 63 {
				return h.Max
			}
			edge := int64(1) << uint(i)
			if edge > h.Max {
				edge = h.Max
			}
			return edge
		}
	}
	return h.Max
}

// Registry holds named counters, gauges, and histograms — the metrics
// layer fed from the event stream. Counters and gauges are exact (they
// come from the per-kind Summary counters); histograms are built from
// the surviving ring events, so a long run that overflowed its rings
// has exact counts but sampled distributions.
//
// All methods synchronize on an internal mutex, so a scrape handler
// (crossinv -serve) can read a registry other goroutines are feeding.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]int64
	gauges     map[string]float64
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]int64{},
		gauges:     map[string]float64{},
		histograms: map[string]*Histogram{},
	}
}

// AddCounter increments the named counter by d.
func (g *Registry) AddCounter(name string, d int64) {
	g.mu.Lock()
	g.counters[name] += d
	g.mu.Unlock()
}

// Counter returns the named counter's value.
func (g *Registry) Counter(name string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.counters[name]
}

// Counters returns a copy of the counter map.
func (g *Registry) Counters() map[string]int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]int64, len(g.counters))
	for n, v := range g.counters {
		out[n] = v
	}
	return out
}

// SetGauge sets the named gauge.
func (g *Registry) SetGauge(name string, v float64) {
	g.mu.Lock()
	g.gauges[name] = v
	g.mu.Unlock()
}

// Gauge returns the named gauge's value.
func (g *Registry) Gauge(name string) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gauges[name]
}

// Histogram returns the named histogram, creating it if absent. The
// returned histogram's own methods synchronize independently, so holding
// the result across concurrent Observe calls is safe.
func (g *Registry) Histogram(name string) *Histogram {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.histograms[name]
	if !ok {
		h = &Histogram{}
		g.histograms[name] = h
	}
	return h
}

// spanClass groups begin/end kind pairs into duration histograms. The
// epoch class has two closing kinds (commit and abort).
type spanClass struct {
	name  string
	begin Kind
	ends  []Kind
}

var spanClasses = [...]spanClass{
	{"iteration", KindIterStart, []Kind{KindIterEnd}},
	{"task", KindTaskStart, []Kind{KindTaskEnd}},
	{"stall", KindStallBegin, []Kind{KindStallEnd}},
	{"queue-full", KindQueueFullBegin, []Kind{KindQueueFullEnd}},
	{"queue-empty", KindQueueEmptyBegin, []Kind{KindQueueEmptyEnd}},
	{"barrier-wait", KindBarrierWaitBegin, []Kind{KindBarrierWaitEnd}},
	{"range-stall", KindRangeStallBegin, []Kind{KindRangeStallEnd}},
	{"epoch", KindEpochBegin, []Kind{KindEpochCommit, KindEpochAbort}},
	{"recovery", KindRecoveryBegin, []Kind{KindRecoveryEnd}},
}

// classOf maps a kind to its span class index and role; ok is false for
// instantaneous kinds.
func classOf(k Kind) (idx int, isBegin bool, ok bool) {
	for i, c := range spanClasses {
		if k == c.begin {
			return i, true, true
		}
		for _, e := range c.ends {
			if k == e {
				return i, false, true
			}
		}
	}
	return 0, false, false
}

// LiveMetrics derives the counter-and-gauge half of the registry from the
// recorder's exact per-kind counters: one counter per event kind, plus
// totals and drop-rate gauges. Unlike Metrics it never walks the ring
// buffers, so it is safe to call while engines are emitting — this is the
// registry the -serve scrape surface renders. On a nil recorder it
// returns an empty registry.
func (r *Recorder) LiveMetrics() *Registry {
	g := NewRegistry()
	if r == nil {
		return g
	}
	sum := r.Summary()
	for k := Kind(0); k < KindCount; k++ {
		if sum.Counts[k] != 0 {
			g.AddCounter("events."+k.String(), sum.Counts[k])
		}
	}
	// The checker's union pre-filter encodes its outcome in argument A
	// (1 = passed, precise scan followed), so the exact hit/miss split —
	// the cheap checker-pressure signal — falls out of the counters.
	if c := sum.Counts[KindSigPrefilter]; c != 0 {
		hits := sum.Sums[KindSigPrefilter]
		g.AddCounter("sig.prefilter.hit", hits)
		g.AddCounter("sig.prefilter.miss", c-hits)
	}
	g.AddCounter("trace.events", sum.Events)
	g.AddCounter("trace.dropped", sum.Dropped)
	g.SetGauge("trace.lanes", float64(sum.Lanes))
	if sum.Events > 0 {
		g.SetGauge("trace.drop.rate", float64(sum.Dropped)/float64(sum.Events))
	}
	return g
}

// Metrics derives the registry from the recorder: one counter per event
// kind (exact), stall/queue/iteration/epoch duration histograms and a
// queue-depth histogram (from surviving ring events), and gauges for
// lane count and drop rate. The histogram pass reads the ring buffers,
// so call Metrics only while the recorded engines are quiescent; use
// LiveMetrics for a concurrent scrape. On a nil recorder it returns an
// empty registry.
func (r *Recorder) Metrics() *Registry {
	g := r.LiveMetrics()
	if r == nil {
		return g
	}

	for _, t := range r.laneList() {
		var open [len(spanClasses)][]int64 // start-time stacks per class
		for _, e := range t.events() {
			if e.Kind == KindQueueDepth {
				g.Histogram("queue.depth").Observe(e.A)
				continue
			}
			idx, isBegin, ok := classOf(e.Kind)
			if !ok {
				continue
			}
			if isBegin {
				open[idx] = append(open[idx], e.Nanos)
				continue
			}
			if n := len(open[idx]); n > 0 {
				start := open[idx][n-1]
				open[idx] = open[idx][:n-1]
				g.Histogram(spanClasses[idx].name + ".ns").Observe(e.Nanos - start)
			}
			// An end without a surviving begin means the begin was
			// overwritten by ring wraparound; skip it.
		}
	}
	return g
}

// WriteText renders the registry as a stable, human-readable listing:
// counters, then gauges, then histograms, each alphabetically.
func (g *Registry) WriteText(w io.Writer) error {
	// Deep-copy under the lock: the maps are mutated in place by
	// concurrent feeders, so rendering must work from a snapshot.
	g.mu.Lock()
	counters := make(map[string]int64, len(g.counters))
	for n, v := range g.counters {
		counters[n] = v
	}
	gauges := make(map[string]float64, len(g.gauges))
	for n, v := range g.gauges {
		gauges[n] = v
	}
	histograms := make(map[string]*Histogram, len(g.histograms))
	for n, h := range g.histograms {
		histograms[n] = h
	}
	g.mu.Unlock()

	var names []string
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "counter   %-28s %d\n", n, counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "gauge     %-28s %.3f\n", n, gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := histograms[n]
		s := h.Snapshot()
		if _, err := fmt.Fprintf(w, "histogram %-28s count %-8d mean %-12.0f p50<=%-12d max %d\n",
			n, s.Count, h.Mean(), h.Quantile(0.5), s.Max); err != nil {
			return err
		}
	}
	return nil
}

// TotalDuration is a convenience: the summed duration of the named span
// histogram as a time.Duration.
func (g *Registry) TotalDuration(name string) time.Duration {
	g.mu.Lock()
	h, ok := g.histograms[name]
	g.mu.Unlock()
	if ok {
		return time.Duration(h.Snapshot().Sum)
	}
	return 0
}
