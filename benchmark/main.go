// Command benchmark is the repository's benchmark: six closed-loop
// workloads over the engines, the compiled regions and crossinvd, with
// end-to-end metrics from a measured pass and per-layer metrics from a
// separate traced pass. README.md in this directory describes the
// workloads, the metrics and how they interact; BENCHMARK.json at the
// repository root is the contract the driver runs it by.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one workload, one pass; last line is the result
//	benchmark -seed N [-o FILE]                              every workload, measured pass then traced pass
//	benchmark -smoke                                         the same with 0.5 s windows and small corpora
//	benchmark -compare A.json B.json                         regression check between two -o reports
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Frozen window lengths. The measured window of a full run is the driver's
// run_seconds; the traced window is a quarter of it (the issue's 20 s : 5 s)
// but never below 2 s.
const (
	fullWindow  = 10 * time.Second
	smokeWindow = 500 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams as parameters, so the package test can read
// what a run prints.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload and print one JSON result line last")
		seed     = fs.Uint64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "length of the timed window (default 10, or 0.5 with -smoke)")
		traceOn  = fs.Int("trace", 0, "with -workload: 0 runs the measured pass, 1 the traced pass")
		smoke    = fs.Bool("smoke", false, "0.5 s windows, small corpora, one set-up")
		compare  = fs.Bool("compare", false, "compare two -o reports: benchmark -compare A.json B.json")
		out      = fs.String("o", "", "write the full report as JSON to this file")
		traceOut = fs.String("trace-out", "", "write the traced pass's spans to this file, suffixed with the workload's name on a full run (default: crossinv-benchmark-trace under -scratch)")
		scratch  = fs.String("scratch", "", "directory under which the run creates (and removes) its own temporary directory (default: os.TempDir())")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json[,A2.json...] B.json[,B2.json...]")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	window := fullWindow
	if *smoke {
		window = smokeWindow
	}
	if *seconds > 0 {
		window = time.Duration(*seconds * float64(time.Second))
	}
	if *scratch != "" {
		if err := os.MkdirAll(*scratch, 0o755); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	dir, err := os.MkdirTemp(*scratch, "crossinv-benchmark-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	base := config{seed: *seed, window: window, smoke: *smoke, procs: runtime.GOMAXPROCS(0), scratch: dir}
	if *traceOut == "" {
		parent := *scratch
		if parent == "" {
			parent = os.TempDir()
		}
		*traceOut = filepath.Join(parent, "crossinv-benchmark-trace")
	}
	b := &bench{base: base, stdout: stdout, stderr: stderr}
	if *workload != "" {
		return b.runOne(*workload, *traceOn != 0, *traceOut+"."+*workload+".json")
	}
	return b.runAll(*out, *traceOut)
}

// bench is one invocation: its settings and where it prints.
type bench struct {
	base           config
	stdout, stderr io.Writer
}

// pass runs one workload on one pass. tracePath, when the pass is traced,
// receives the spans. Only a full measured pass repeats the set-up.
func pass(w workloadDef, base config, traced bool, tracePath string) (*result, error) {
	cfg := base
	if traced {
		cfg.tr = newTracer()
	}
	if traced || base.smoke {
		w.setups = 1
	}
	res, err := runWorkload(w, &cfg)
	if err != nil {
		return nil, err
	}
	if traced {
		if err := cfg.tr.write(tracePath); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
		}
	}
	return res, nil
}

// runOne is the driver's entry: one workload, one pass, and as the last
// line of standard output one JSON object with exactly the keys correct,
// attempted, failed and metrics.
func (b *bench) runOne(name string, traced bool, traceOut string) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(b.stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	res, err := pass(w, b.base, traced, traceOut)
	if err != nil {
		fmt.Fprintln(b.stderr, "benchmark:", err)
		return 1
	}
	printResult(b.stdout, res)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(b.stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(b.stdout, string(line))
	return 0
}

// report is the -o document: both passes of every workload plus what is
// needed to read two reports side by side.
type report struct {
	Schema    string      `json:"schema"`
	Seed      uint64      `json:"seed"`
	WindowS   float64     `json:"window_s"`
	TracedS   float64     `json:"traced_window_s"`
	Smoke     bool        `json:"smoke"`
	Procs     int         `json:"gomaxprocs"`
	NumCPU    int         `json:"nproc"`
	GoVersion string      `json:"go_version"`
	EndToEnd  []metricDef `json:"end_to_end"`
	Measured  []*result   `json:"measured"`
	Traced    []*result   `json:"traced"`
	// TraceOverhead is 1 − traced/measured ops_per_s per workload.
	TraceOverhead map[string]float64 `json:"trace_overhead"`
}

const reportSchema = "crossinv-benchmark/v1"

// runAll runs every workload's measured pass, then every traced pass with
// a shorter window, prints every metric and optionally writes the report.
func (b *bench) runAll(out, traceOut string) int {
	base := b.base
	tracedWindow := base.window / 4
	if min := 2 * time.Second; !base.smoke && tracedWindow < min {
		tracedWindow = min
	}
	rep := report{
		Schema: reportSchema, Seed: base.seed, WindowS: base.window.Seconds(), TracedS: tracedWindow.Seconds(),
		Smoke: base.smoke, Procs: base.procs, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		EndToEnd: endToEnd, TraceOverhead: map[string]float64{},
	}
	failed := false
	for _, traced := range []bool{false, true} {
		cfg := base
		if traced {
			cfg.window = tracedWindow
		}
		for _, w := range allWorkloads {
			res, err := pass(w, cfg, traced, traceOut+"."+w.name+".json")
			if err != nil {
				fmt.Fprintln(b.stderr, "benchmark:", err)
				return 1
			}
			printResult(b.stdout, res)
			failed = failed || res.Failed > 0
			if traced {
				rep.Traced = append(rep.Traced, res)
			} else {
				rep.Measured = append(rep.Measured, res)
			}
		}
	}
	for i, m := range rep.Measured {
		over := 1 - ratio(rep.Traced[i].Metrics["trace.ops_per_s"].Value, m.Metrics["ops_per_s"].Value)
		rep.TraceOverhead[m.Workload] = over
		fmt.Fprintf(b.stdout, "%-18s trace_overhead %.4f share (1 - traced/measured ops_per_s)\n", m.Workload, over)
	}
	if out != "" {
		raw, err := json.MarshalIndent(&rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(b.stderr, "benchmark:", err)
			return 1
		}
	}
	if failed {
		fmt.Fprintln(b.stderr, "benchmark: operations failed")
		return 1
	}
	return 0
}

// printResult prints every metric of one pass by name, with its unit, and
// the sample counts behind the latency numbers.
func printResult(w io.Writer, r *result) {
	passName := "measured"
	if r.Traced {
		passName = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass): loop %s, %d clients, window %.2f s, %d attempted, %d failed, failed_share %.6f failed/attempted\n",
		r.Workload, passName, r.Loop, r.Clients, r.WindowS, r.Attempted, r.Failed, r.FailedShare)
	if !r.Traced {
		lo, _, hi := quartiles(r.SetupSamples)
		fmt.Fprintf(w, "   latency from %d samples; lat_p95_ms reports p%.2f; p99 (not gated) %.4f ms; setup_s is the median of %d set-ups (quartiles %.4f to %.4f s)\n",
			r.Samples, 100*r.TailPercentile, r.P99Ms, len(r.SetupSamples), lo, hi)
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, m := range defs {
		v := r.Metrics[m.Name]
		fmt.Fprintf(w, "   %-36s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(w, "   row %-40s median %10.4f ms over %d ops\n", row.Row, row.MedianMs, row.Ops)
	}
	if r.Traced {
		for _, name := range sortedKeys(r.Spans) {
			s := r.Spans[name]
			fmt.Fprintf(w, "   span %-39s n %7d total %12.3f ms self %12.3f ms\n", name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
}
