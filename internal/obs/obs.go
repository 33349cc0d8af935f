// Package obs is the live observability surface: an HTTP mux exposing the
// trace recorder's exact per-kind counters while engines run. It is the
// serving half of the observability layer — internal/runtime/trace records,
// obs exposes:
//
//	/metrics        Prometheus text exposition of Recorder.LiveMetrics, the
//	                goroutine count and the engine pool's runtime counters
//	/summary        JSON of the live Summary (per-kind counts and sums)
//	/debug/pprof/*  standard pprof handlers; CPU profiles carry the
//	                engine/lane goroutine labels the engine runtime sets
//	                per phase, so samples attribute to scheduler/worker/checker
//
// Everything served here reads only the single-writer atomic counters
// (never the ring buffers), so scraping during a run is race-free; the
// tier-1 workload suites run engines under -race with live scrapes to
// keep it that way.
package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"runtime"

	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/trace"
)

// SummarySchema versions the /summary document; consumers check it
// before trusting field meanings.
const SummarySchema = "crossinv-summary/v1"

// Summary is the /summary JSON document: the live trace totals plus the
// non-zero per-kind counts and argument sums, keyed by kind name.
type Summary struct {
	Schema  string           `json:"schema"`
	Events  int64            `json:"events"`
	Dropped int64            `json:"dropped"`
	Lanes   int              `json:"lanes"`
	Counts  map[string]int64 `json:"counts"`
	Sums    map[string]int64 `json:"sums,omitempty"`
}

// MakeSummary converts a trace summary to its JSON form.
func MakeSummary(sum trace.Summary) Summary {
	out := Summary{
		Schema:  SummarySchema,
		Events:  sum.Events,
		Dropped: sum.Dropped,
		Lanes:   sum.Lanes,
		Counts:  map[string]int64{},
		Sums:    map[string]int64{},
	}
	for k := trace.Kind(0); k < trace.KindCount; k++ {
		if sum.Counts[k] != 0 {
			out.Counts[k.String()] = sum.Counts[k]
		}
		if sum.Sums[k] != 0 {
			out.Sums[k.String()] = sum.Sums[k]
		}
	}
	return out
}

// NewMux builds the observability mux over a recorder. decorate, when
// non-nil, runs on each /metrics scrape's registry before rendering, so
// the caller can add its own gauges (run counts, loop progress) next to
// the trace-derived ones.
func NewMux(rec *trace.Recorder, decorate func(*trace.Registry)) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		g := rec.LiveMetrics()
		g.SetGauge("process.goroutines", float64(runtime.NumGoroutine()))
		// Is this process paying thread start-up per engine call, and how
		// many parked engine threads is it holding?
		created, reused, idle := engine.Counters()
		g.AddCounter("engine.runtimes_created", created)
		g.AddCounter("engine.runtimes_reused", reused)
		g.SetGauge("engine.runtimes_idle", float64(idle))
		if decorate != nil {
			decorate(g)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := g.WritePrometheus(w); err != nil {
			// Headers are gone; nothing useful to report beyond the log.
			return
		}
	})

	mux.HandleFunc("/summary", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(MakeSummary(rec.Summary()))
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("crossinv observability surface\n\n/metrics\n/summary\n/debug/pprof/\n"))
	})

	return mux
}
