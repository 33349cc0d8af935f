package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metricDef names one metric; BENCHMARK.json repeats these tables and the
// package test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, on every workload.
// Bound is the share of the parent's median by which a later change may
// worsen the metric before it counts as a regression.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// config is one run's settings.
type config struct {
	seed   uint64
	window time.Duration
	// smoke shrinks corpora so the package test stays fast.
	smoke bool
	// procs is the worker, lane, in-flight and client count: nproc.
	procs int
	// scratch is the directory this run may create files in.
	scratch string
	// tr is nil on the measured pass and set on the traced pass.
	tr *tracer
}

func (c *config) traced() bool { return c.tr != nil }

// instance is one set-up workload. Operations are numbered per client;
// operation seq of client c is a pure function of (seed, c, seq), so a
// seed fixes every client's whole request sequence.
type instance interface {
	// clients is the number of concurrent closed-loop callers.
	clients() int
	// roundOps is the number of operations one client issues per round.
	// The timed window ends at the first round boundary past its length.
	roundOps() int
	// do issues one operation and blocks on its result. latency is what
	// the caller waited; ok is false on a wrong result, a panic, a non-200
	// status or ok:false.
	do(client, seq int) (latency time.Duration, ok bool)
	// finish runs after the timed window, untimed: verification that was
	// deferred out of the window (its failures are returned) and, on the
	// traced pass, the layer numbers.
	finish(out *layerSet) (lateFailures int, err error)
	// close stops everything the set-up started and waits for it.
	close()
}

// workloadDef describes one workload; the six are listed in workloads.go.
type workloadDef struct {
	name, why, loop string
	// setups is how many times a full measured pass repeats the set-up;
	// setup_s is the median. Cheap set-ups are repeated more often, so the
	// median rests on comparable amounts of work.
	setups int
	setup  func(cfg *config) (instance, error)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome on one pass.
type result struct {
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	Loop      string  `json:"loop"`
	Clients   int     `json:"clients"`
	WindowS   float64 `json:"window_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Samples is the number of latency samples behind the latency metrics;
	// TailPercentile is the percentile lat_p95_ms actually reports (below
	// 0.95 only when fewer than 200 samples were taken). P99Ms is printed
	// beside them but not gated: on a shared two-core VM its run-to-run
	// spread is wider than any bound the contract allows.
	Samples        int                    `json:"samples"`
	TailPercentile float64                `json:"tail_percentile"`
	P99Ms          float64                `json:"lat_p99_ms_ungated"`
	FailedShare    float64                `json:"failed_share"`
	SetupSamples   []float64              `json:"setup_samples_s"`
	Metrics        map[string]metricValue `json:"metrics"`
	Rows           []rowResult            `json:"rows,omitempty"`
	Spans          map[string]spanTotals  `json:"spans,omitempty"`
}

// rowResult is one supporting row: a program under one engine.
type rowResult struct {
	Row      string  `json:"row"`
	Ops      int     `json:"ops"`
	MedianMs float64 `json:"median_ms"`
}

// layerSet collects the traced pass's per-layer numbers. Everything in
// perLayer is reported on every workload; a layer a workload does not use
// reports 0, which is the prediction written down for it in README.md.
type layerSet struct {
	values map[string]float64
	rows   []rowResult
}

func (l *layerSet) set(name string, v float64) { l.values[name] = v }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// safeDo turns a panic inside an operation into a failed operation.
func safeDo(inst instance, client, seq int) (lat time.Duration, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
		}
	}()
	return inst.do(client, seq)
}

// clientLog is what one client observed.
type clientLog struct {
	lat    []float64 // ms, one per operation
	failed int
}

// runRounds drives every client concurrently from operation first until
// the first round boundary at or past deadline (one round when deadline is
// zero), and returns each client's log.
func runRounds(inst instance, first int, deadline time.Time) []clientLog {
	logs := make([]clientLog, inst.clients())
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := &logs[c]
			seq := first
			for {
				for i := 0; i < inst.roundOps(); i++ {
					lat, ok := safeDo(inst, c, seq)
					seq++
					log.lat = append(log.lat, ms(lat))
					if !ok {
						log.failed++
					}
				}
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return logs
}

// runWorkload sets the workload up (several times, keeping the last),
// runs one timed window and reports. On the measured pass the metrics are
// the end-to-end ones, on the traced pass the per-layer ones.
func runWorkload(w workloadDef, cfg *config) (*result, error) {
	var inst instance
	var setupS []float64
	for i := 0; i < w.setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		// The warm-up round is part of set-up: lazy initialisation that a
		// change moves out of the timed window lands here and shows.
		for _, log := range runRounds(inst, 0, time.Time{}) {
			if log.failed > 0 {
				inst.close()
				return nil, fmt.Errorf("%s: %d operations failed in the warm-up round", w.name, log.failed)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	logs := runRounds(inst, inst.roundOps(), start.Add(cfg.window))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	res := &result{
		Workload: w.name, Traced: cfg.traced(), Loop: w.loop, Clients: inst.clients(),
		WindowS: elapsed.Seconds(), SetupSamples: setupS,
		Metrics: map[string]metricValue{},
	}
	var lat []float64
	for _, log := range logs {
		lat = append(lat, log.lat...)
		res.Failed += log.failed
	}
	res.Attempted = len(lat)
	res.Samples = len(lat)
	layers := &layerSet{values: map[string]float64{}}
	late, err := inst.finish(layers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Failed += late
	res.FailedShare = ratio(float64(res.Failed), float64(res.Attempted))
	res.Rows = layers.rows

	opsPerS := float64(res.Attempted-res.Failed) / elapsed.Seconds()
	tail, used := tailPercentile(lat, 0.95)
	res.TailPercentile = used
	res.P99Ms, _ = tailPercentile(lat, 0.99)
	if !cfg.traced() {
		values := map[string]float64{
			"ops_per_s":  opsPerS,
			"lat_p50_ms": median(lat),
			"lat_p95_ms": tail,
			"setup_s":    median(setupS),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
		}
		return res, nil
	}

	layers.set("trace.ops_per_s", opsPerS)
	layers.set("trace.spans", float64(cfg.tr.count()))
	layers.set("process.allocs_per_op", ratio(float64(after.Mallocs-before.Mallocs), float64(res.Attempted)))
	layers.set("process.peak_heap_mb", float64(after.HeapSys)/(1<<20))
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{Value: layers.values[m.Name], Unit: m.Unit}
	}
	for name := range layers.values {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("%s: layer metric %q is not declared in perLayer", w.name, name)
		}
	}
	res.Spans = cfg.tr.totals()
	return res, nil
}

// rowLog accumulates per-row latencies for the supporting rows.
type rowLog struct {
	mu   sync.Mutex
	rows map[string][]float64
}

func newRowLog() *rowLog { return &rowLog{rows: map[string][]float64{}} }

func (r *rowLog) add(row string, d time.Duration) {
	r.mu.Lock()
	r.rows[row] = append(r.rows[row], ms(d))
	r.mu.Unlock()
}

func (r *rowLog) results() []rowResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]rowResult, 0, len(r.rows))
	for row, xs := range r.rows {
		out = append(out, rowResult{Row: row, Ops: len(xs), MedianMs: median(xs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Row < out[j].Row })
	return out
}

func (r *rowLog) median(row string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.rows[row])
}
