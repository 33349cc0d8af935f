// Command crossinv is the compiler driver: it parses a loop-nest-language
// program, runs the dependence analysis, reports the candidate regions, and
// executes the program under the chosen strategy, verifying every parallel
// execution against the sequential result.
//
// Usage:
//
//	crossinv [flags] <program.lnl>
//
//	-mode     seq | barrier | domore | speccross | adaptive | all
//	          (default all)
//	-workers  worker thread count (default 4)
//	-region   candidate region index (default: last detected)
//	-report   print the per-region analysis report and exit
//	-analyze  print the cross-invocation dependence report (distance and
//	          direction vectors, per-region none/forward-only/cyclic/unknown
//	          classification) and exit
//	-lint     run the static plan verifier and exit (nonzero on any error)
//	-json     with -lint or -analyze: emit the result as JSON
//	-dump     print the lowered IR and exit
//	-profile  run the §4.4 profiling pass before speculating (speccross;
//	          adaptive always profiles to seed its controller, unless the
//	          region is proven free of cross-invocation dependences)
//	-window   adaptive monitoring window in epochs (0: runtime default)
//	-trace    write a Chrome trace_event JSON of the run to FILE (single
//	          engine modes only; load via chrome://tracing or Perfetto)
//	-metrics  print the metrics registry and per-thread timeline after the
//	          run (single engine modes only)
//	-misspec  inject a misspeculation at epoch N (speccross/adaptive;
//	          with -remote it is forwarded to the daemon, which exercises
//	          its rollback path and flight recorder)
//	-explain  print the adaptive controller's per-window decision audit
//	          after the run: engine, sampled signals, and the policy's
//	          stated reason. With -mode domore, print the guard's decision:
//	          how many iterations ran inline, the measured inline and
//	          scheduler costs per iteration, and whether the region went
//	          parallel. With -mode speccross, print its guard's: how many
//	          epochs ran inline, the inline and speculative costs per task,
//	          and whether the region speculated. With -remote it fetches
//	          the daemon's /debug/decisions journal for the invocation
//	-serve    serve /metrics (Prometheus text), /summary (JSON), and
//	          /debug/pprof/ on ADDR while looping the workload (any mode,
//	          including adaptive and all; CPU profiles carry engine/lane
//	          labels). The loop is the daemon's ServeWorkloadLoop.
//	-serve-runs  with -serve: stop after N runs (0: loop until killed)
//	-remote   send the program to a crossinvd daemon at ADDR instead of
//	          compiling locally — repeat invocations hit the daemon's
//	          plan cache and skip analysis entirely
//
// Examples:
//
//	crossinv -mode all -workers 8 examples/compiler/stencil.lnl
//	crossinv -mode domore -trace out.json -metrics examples/compiler/cg.lnl
//	crossinv -mode speccross -misspec 2 -trace spec.json examples/compiler/cg.lnl
//	crossinv -mode adaptive -serve localhost:9090 examples/compiler/cg.lnl
//	crossinv -remote localhost:9123 -mode speccross examples/compiler/cg.lnl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"crossinv/internal/core"
	"crossinv/internal/daemon"
	"crossinv/internal/ir"
	"crossinv/internal/obs"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
)

var (
	mode    = flag.String("mode", "all", "execution mode: seq|barrier|domore|speccross|adaptive|all")
	workers = flag.Int("workers", 4, "worker thread count")
	region  = flag.Int("region", -1, "candidate region index (-1: last)")
	report  = flag.Bool("report", false, "print the analysis report and exit")
	analyze = flag.Bool("analyze", false, "print the cross-invocation dependence report and exit")
	lint    = flag.Bool("lint", false, "run the static plan verifier and exit (nonzero on any error)")
	jsonOut = flag.Bool("json", false, "with -lint or -analyze: emit the result as JSON")
	dump    = flag.Bool("dump", false, "print the lowered IR and exit")
	profile = flag.Bool("profile", false, "profile before speculating")
	window  = flag.Int("window", 0, "adaptive monitoring window in epochs (0: runtime default)")

	traceFile = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
	metrics   = flag.Bool("metrics", false, "print the metrics registry and per-thread timeline after the run")
	misspec   = flag.Int("misspec", 0, "inject a misspeculation at this epoch (speccross/adaptive)")
	explain   = flag.Bool("explain", false, "print the adaptive controller's per-window decision audit (adaptive mode; works with -remote), DOMORE's inline-or-parallel decision (domore mode) or SPECCROSS's inline-or-speculate decision (speccross mode) after the run")

	serve     = flag.String("serve", "", "serve /metrics, /summary, and /debug/pprof on this address while looping the workload")
	serveRuns = flag.Int("serve-runs", 0, "with -serve: stop after this many runs (0: loop until killed)")

	remote = flag.String("remote", "", "run against a crossinvd daemon at this address instead of compiling locally")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: crossinv [flags] <program.lnl>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *remote != "" {
		if *report || *analyze || *lint || *dump || *serve != "" || *traceFile != "" || *metrics {
			fatal(fmt.Errorf("-remote sends the program to a daemon; it cannot combine with local-analysis flags (-report/-analyze/-lint/-dump/-serve/-trace/-metrics)"))
		}
		if *misspec > 0 && *mode != "speccross" && *mode != "adaptive" {
			fatal(fmt.Errorf("-misspec applies only to -mode speccross or adaptive, not %s", *mode))
		}
		if *explain && *mode != "adaptive" && *mode != "all" {
			fatal(fmt.Errorf("-explain renders the adaptive decision audit; it needs -mode adaptive (or all), not %s", *mode))
		}
		if err := runRemote(*remote, string(src), *mode, *workers, *region, *window, *misspec, *explain); err != nil {
			fatal(err)
		}
		return
	}
	if *explain && *mode != "adaptive" && *mode != "domore" && *mode != "speccross" {
		fatal(fmt.Errorf("-explain renders the adaptive decision audit or a guard's decision; it needs -mode adaptive, domore or speccross, not %s", *mode))
	}
	c, err := core.Compile(string(src))
	if err != nil {
		fatal(err)
	}
	if *dump {
		fmt.Print(c.Prog.Dump())
		return
	}
	if *lint {
		out, hasErrors, err := lintOutput(c, flag.Arg(0), *jsonOut)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		if hasErrors {
			os.Exit(1)
		}
		return
	}
	if *report {
		fmt.Print(reportOutput(c))
		return
	}
	if *analyze {
		out, err := analyzeOutput(c, *jsonOut)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}

	var target *ir.Loop
	var plan core.Plan
	if len(c.Regions) > 0 {
		idx := *region
		if idx < 0 {
			idx = len(c.Regions) - 1
		}
		target, err = c.Region(idx)
		if err != nil {
			fatal(err)
		}
		plan.Facts = c.Facts()[idx]
	}

	observing := *traceFile != "" || *metrics || *serve != ""
	if *traceFile != "" || *metrics || *misspec > 0 {
		switch *mode {
		case "all", "seq":
			fatal(fmt.Errorf("-trace/-metrics/-misspec need a single engine mode, not -mode %s", *mode))
		}
	}
	if *misspec > 0 && *mode != "speccross" && *mode != "adaptive" {
		fatal(fmt.Errorf("-misspec applies only to -mode speccross or adaptive, not %s", *mode))
	}
	var rec *trace.Recorder
	if observing {
		rec = trace.NewRecorder()
	}

	seqEnv, err := c.RunSequential()
	if err != nil {
		fatal(err)
	}
	want := seqEnv.Checksum()
	fmt.Printf("sequential: checksum %016x\n", want)

	runMode := func(m string) {
		if target == nil {
			fmt.Printf("%-10s skipped (no candidate region)\n", m)
			return
		}
		p := plan
		if m == "speccross" && !*profile {
			p.Profile = func() (speccross.ProfileResult, error) {
				return speccross.ProfileResult{MinDistance: speccross.NoConflict}, nil
			}
		}
		opts := core.Options{Engine: m, Workers: *workers, Window: *window, ForceMisspecEpoch: *misspec, Trace: rec}
		var audit []obs.DecisionEntry
		if *explain {
			opts.OnDecision = func(d adaptive.Decision) {
				audit = append(audit, obs.DecisionFromAudit("", d))
			}
		}
		start := time.Now()
		res, err := c.Run(target, p, opts)
		if err != nil {
			fmt.Printf("%-10s inapplicable: %v\n", m, err)
			return
		}
		got := res.Env.Checksum()
		fmt.Printf("%-10s checksum %016x  %v  (%s)\n", m, got, time.Since(start).Round(time.Microsecond), details(res))
		switch {
		case *explain && res.DOMORE != nil:
			fmt.Println(guardLine(res.DOMORE.Stats))
		case *explain && res.SpecCross != nil:
			fmt.Println(specGuardLine(res.SpecCross.Stats))
			fmt.Println(chunkLine(res.SpecCross, *workers))
			fmt.Println(checkpointLine(res.SpecCross.Stats))
		case *explain:
			fmt.Print(renderDecisions(audit))
		}
		if got != want {
			fmt.Fprintf(os.Stderr, "FAIL: %s checksum %016x != sequential %016x\n", m, got, want)
			os.Exit(1)
		}
	}

	runAll := func() {
		runMode("barrier")
		runMode("domore")
		runMode("speccross")
		runMode("adaptive")
	}
	runSeq := func() {
		env, err := c.RunSequential()
		if err != nil {
			fatal(err)
		}
		if got := env.Checksum(); got != want {
			fmt.Fprintf(os.Stderr, "FAIL: seq checksum %016x != sequential %016x\n", got, want)
			os.Exit(1)
		}
	}
	var runOnce func()
	switch *mode {
	case "seq":
		runOnce = runSeq
	case "all":
		runOnce = runAll
	case "barrier", "domore", "speccross", "adaptive":
		runOnce = func() { runMode(*mode) }
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if *serve != "" {
		// One serve loop for every mode — including adaptive and all; the
		// loop body is whatever the mode would have run once.
		if err := serveLoop(*serve, *serveRuns, rec, runOnce); err != nil {
			fatal(err)
		}
	} else if *mode != "seq" {
		runOnce()
	}

	if rec != nil {
		if err := exportTrace(rec, *traceFile, *metrics); err != nil {
			fatal(err)
		}
	}
}

// serveLoop exposes the observability mux on addr and keeps re-running the
// selected engine against the shared recorder, so /metrics and the pprof
// endpoints can be scraped while work is in flight. The recorder's
// counters are cumulative across runs — the monotone series Prometheus
// counters expect. runs == 0 loops until the process is killed.
func serveLoop(addr string, runs int, rec *trace.Recorder, runOnce func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving /metrics, /summary, /debug/pprof/ on http://%s\n", ln.Addr())
	return serveOn(ln, runs, rec, runOnce)
}

// serveOn runs the loop against an existing listener (split out so tests
// can allocate the port). The loop itself lives in internal/daemon —
// crossinvd and -serve share one implementation. The listener is closed
// when the loop ends.
func serveOn(ln net.Listener, runs int, rec *trace.Recorder, runOnce func()) error {
	return daemon.ServeWorkloadLoop(ln, runs, rec, runOnce)
}

// exportTrace writes the recorder's Chrome trace_event JSON to file (when
// file is non-empty) and prints the metrics registry plus the per-thread
// timeline to stdout (when metrics is set).
func exportTrace(rec *trace.Recorder, file string, metrics bool) error {
	if file != "" {
		f, err := os.Create(file)
		if err != nil {
			return err
		}
		if err := rec.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		sum := rec.Summary()
		fmt.Printf("trace: %s (%d events, %d dropped, %d lanes)\n", file, sum.Events, sum.Dropped, sum.Lanes)
	}
	if metrics {
		fmt.Println("metrics:")
		if err := rec.Metrics().WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println("timeline:")
		if err := rec.WriteTimeline(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// details renders the statistics of the engine that ran.
func details(res core.Result) string {
	switch {
	case res.Barrier != nil:
		idle, waits := res.Barrier.Barrier.Stats()
		return fmt.Sprintf("barrier waits %d, idle %v", waits, idle.Round(time.Microsecond))
	case res.DOMORE != nil:
		st := res.DOMORE.Stats
		return fmt.Sprintf("iterations %d, sync conditions %d, stalls %d", st.Iterations, st.SyncConditions, st.Stalls)
	case res.SpecCross != nil:
		st := res.SpecCross.Stats
		return fmt.Sprintf("tasks %d, misspeculations %d, checkpoints %d", st.Tasks, st.Misspeculations, st.Checkpoints)
	default:
		st := res.Adaptive.Stats
		return fmt.Sprintf("windows %d, switches %d, engine windows [domore speccross barrier] %v",
			st.Windows, st.Switches, st.EngineWindows[:adaptive.EngineBarrier+1])
	}
}

// guardLine renders the decision of domore.Run's guard: what ran inline,
// the two measured rates, and the outcome.
func guardLine(st domore.Stats) string {
	var outcome string
	switch {
	case st.Inline < st.Iterations:
		outcome = fmt.Sprintf("went parallel after %d: the scheduler costs less than the body", st.Inline)
	case st.SchedNs >= st.InlineNs:
		outcome = "stayed on the calling thread: the scheduler alone costs at least the body"
	default:
		outcome = "ran on the calling thread: the region ended before the probe decided or a worker started"
	}
	return fmt.Sprintf("  guard: %d of %d iterations inline, inline %.1f ns/iteration, scheduler %.1f ns/iteration; %s",
		st.Inline, st.Iterations, st.InlineNs, st.SchedNs, outcome)
}

// specGuardLine renders the decision of speccross.Run's guard: the epochs
// it ran inline, the two rates, and the outcome.
func specGuardLine(st speccross.Stats) string {
	if st.InlineNs == 0 {
		return "  guard: none ran: the run forced a misspeculation, or the profile found speculation unprofitable and barriers ran"
	}
	speculated := st.Epochs + st.ReexecutedEpochs
	var outcome string
	switch {
	case speculated == 0 && st.SpecNs >= st.InlineNs:
		outcome = "stayed on the calling thread: speculation costs at least the body"
	case speculated == 0:
		outcome = "ran on the calling thread: the region ended before the probe decided"
	case st.SpecNs >= st.InlineNs:
		outcome = "speculated after the probe, then ran the rest inline: a segment cost at least the body"
	default:
		outcome = "speculated after the probe: speculation costs less than the body"
	}
	return fmt.Sprintf("  guard: %d of %d epochs inline, inline %.1f ns/task, speculation %.1f ns/task; %s",
		st.Inline, speculated+st.Inline, st.InlineNs, st.SpecNs, outcome)
}

// chunkLine renders how SPECCROSS's speculative workers took their tasks:
// the distance the run speculated within and the most tasks a chunk held
// at it (speccross.ChunkTasks).
func chunkLine(res *core.SpecCrossResult, workers int) string {
	dist, profitable := res.Profile.Recommended(workers)
	switch {
	case !profitable:
		return "  chunks: none: the profile found speculation unprofitable and barriers ran"
	case dist == 0:
		return fmt.Sprintf("  chunks: %d task each: no distance bounds speculation (the run was not profiled, or its profile found no conflict)", res.ChunkTasks)
	}
	return fmt.Sprintf("  chunks: up to %d tasks each: distance %d shared by %d workers", res.ChunkTasks, dist, workers)
}

// checkpointLine renders what SPECCROSS's checkpoints cost: how many were
// taken, the dirty cells the commits refreshed, the rollbacks, and the
// control thread's time capturing, committing and rolling back the cell
// image.
func checkpointLine(st speccross.Stats) string {
	return fmt.Sprintf("  checkpoints: %d, %d dirty cells, %d rollbacks, %v on the cell image",
		st.Checkpoints, st.DeltaCells, st.Misspeculations, time.Duration(st.CheckpointNs).Round(time.Microsecond))
}

// lintOutput renders the static plan verifier's diagnostics for the
// program, as text or JSON, and reports whether any has error severity.
func lintOutput(c *core.Compiled, file string, asJSON bool) (string, bool, error) {
	list := c.Lint().WithFile(file)
	if asJSON {
		raw, err := list.JSON()
		if err != nil {
			return "", false, err
		}
		return string(raw) + "\n", list.HasErrors(), nil
	}
	return list.Text(), list.HasErrors(), nil
}

// analyzeOutput renders the cross-invocation dependence facts, as the
// human-readable report or as the serialized Facts JSON (the exact form
// whose hash feeds the plan-cache fingerprint).
func analyzeOutput(c *core.Compiled, asJSON bool) (string, error) {
	facts := c.XDep()
	if asJSON {
		raw, err := json.MarshalIndent(facts, "", "  ")
		if err != nil {
			return "", err
		}
		return string(raw) + "\n", nil
	}
	return facts.Text(), nil
}

// reportOutput renders the per-region analysis report.
func reportOutput(c *core.Compiled) string {
	if len(c.Regions) == 0 {
		return "no candidate regions (no outer loop with parallel inner loops)\n"
	}
	var s string
	for _, r := range c.Regions {
		s += c.Report(r)
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crossinv:", err)
	os.Exit(1)
}
