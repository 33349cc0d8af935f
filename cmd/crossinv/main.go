// Command crossinv is the compiler driver: it parses a loop-nest-language
// program, runs the dependence analysis, reports the candidate regions, and
// executes the program under the chosen strategy, verifying every parallel
// execution against the sequential result.
//
// Usage:
//
//	crossinv [flags] <program.lnl>
//
//	-mode     seq | barrier | domore | domore-sharded | speccross | adaptive
//	          | all   (default all)
//	-workers  worker thread count (default 4)
//	-lanes    scheduler lane count for domore-sharded (0: runtime default)
//	-region   candidate region index (default: last detected)
//	-report   print the per-region analysis report and exit
//	-analyze  print the cross-invocation dependence report (distance and
//	          direction vectors, per-region none/forward-only/cyclic/unknown
//	          classification) and exit
//	-lint     run the static plan verifier and exit (nonzero on any error)
//	-json     with -lint or -analyze: emit the result as JSON
//	-dump     print the lowered IR and exit
//	-profile  run the §4.4 profiling pass before speculating (speccross)
//	-ckpt     SPECCROSS checkpoint period in epochs (default 1000)
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
//	          stated reason. With -remote it fetches the daemon's
//	          /debug/decisions journal for the invocation
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
	"crossinv/internal/ir/interp"
	"crossinv/internal/obs"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/sim"
	"crossinv/internal/transform/speccrossgen"
)

var (
	mode    = flag.String("mode", "all", "execution mode: seq|barrier|domore|domore-sharded|speccross|adaptive|all")
	workers = flag.Int("workers", 4, "worker thread count")
	lanes   = flag.Int("lanes", 0, "scheduler lane count for domore-sharded (0: runtime default)")
	region  = flag.Int("region", -1, "candidate region index (-1: last)")
	report  = flag.Bool("report", false, "print the analysis report and exit")
	analyze = flag.Bool("analyze", false, "print the cross-invocation dependence report and exit")
	lint    = flag.Bool("lint", false, "run the static plan verifier and exit (nonzero on any error)")
	jsonOut = flag.Bool("json", false, "with -lint or -analyze: emit the result as JSON")
	dump    = flag.Bool("dump", false, "print the lowered IR and exit")
	profile = flag.Bool("profile", false, "profile before speculating")
	ckpt    = flag.Int("ckpt", 1000, "speccross checkpoint period (epochs)")
	window  = flag.Int("window", 0, "adaptive monitoring window in epochs (0: runtime default)")
	sweep   = flag.Bool("sweep", false, "print a 2..24-thread virtual-time scalability sweep and exit")

	traceFile = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
	metrics   = flag.Bool("metrics", false, "print the metrics registry and per-thread timeline after the run")
	misspec   = flag.Int("misspec", 0, "inject a misspeculation at this epoch (speccross/adaptive)")
	explain   = flag.Bool("explain", false, "print the adaptive controller's per-window decision audit after the run (adaptive mode; works with -remote)")

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
		if *report || *analyze || *lint || *dump || *sweep || *serve != "" || *traceFile != "" || *metrics {
			fatal(fmt.Errorf("-remote sends the program to a daemon; it cannot combine with local-analysis flags (-report/-analyze/-lint/-dump/-sweep/-serve/-trace/-metrics)"))
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
	if *explain && *mode != "adaptive" {
		fatal(fmt.Errorf("-explain renders the adaptive decision audit; it needs -mode adaptive, not %s", *mode))
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
	if len(c.Regions) > 0 {
		idx := *region
		if idx < 0 {
			idx = len(c.Regions) - 1
		}
		target, err = c.Region(idx)
		if err != nil {
			fatal(err)
		}
	}

	if *sweep {
		if target == nil {
			fatal(fmt.Errorf("no candidate region to sweep"))
		}
		runSweep(c, target)
		return
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
		start := time.Now()
		var got uint64
		switch m {
		case "barrier":
			res, err := c.RunBarriersTraced(target, *workers, rec)
			if err != nil {
				fmt.Printf("%-10s inapplicable: %v\n", m, err)
				return
			}
			got = res.Env.Checksum()
			idle, waits := res.Barrier.Stats()
			fmt.Printf("%-10s checksum %016x  %v  (barrier waits %d, idle %v)\n",
				m, got, time.Since(start).Round(time.Microsecond), waits, idle.Round(time.Microsecond))
		case "domore":
			res, err := runDOMORE(c, target, false, domore.Options{Workers: *workers, Trace: rec})
			if err != nil {
				fmt.Printf("%-10s inapplicable: %v\n", m, err)
				return
			}
			got = res.Env.Checksum()
			fmt.Printf("%-10s checksum %016x  %v  (iterations %d, sync conditions %d, stalls %d)\n",
				m, got, time.Since(start).Round(time.Microsecond),
				res.Stats.Iterations, res.Stats.SyncConditions, res.Stats.Stalls)
		case "domore-sharded":
			res, err := runDOMORE(c, target, true, domore.Options{Workers: *workers, Lanes: *lanes, Trace: rec})
			if err != nil {
				fmt.Printf("%-10s inapplicable: %v\n", m, err)
				return
			}
			got = res.Env.Checksum()
			fmt.Printf("%-10s checksum %016x  %v  (iterations %d, sync conditions %d, batches %d, lane waits %d)\n",
				m, got, time.Since(start).Round(time.Microsecond),
				res.Stats.Iterations, res.Stats.SyncConditions, res.Stats.Batches, res.Stats.LaneWaits)
		case "speccross":
			res, err := runSpecCross(c, target, speccross.Config{
				Workers: *workers, CheckpointEvery: *ckpt,
				ForceMisspecEpoch: *misspec, Trace: rec,
			}, *profile)
			if err != nil {
				fmt.Printf("%-10s inapplicable: %v\n", m, err)
				return
			}
			got = res.Env.Checksum()
			fmt.Printf("%-10s checksum %016x  %v  (tasks %d, misspeculations %d, checkpoints %d)\n",
				m, got, time.Since(start).Round(time.Microsecond),
				res.Stats.Tasks, res.Stats.Misspeculations, res.Stats.Checkpoints)
		case "adaptive":
			acfg := adaptive.Config{Workers: *workers, Window: *window, Trace: rec}
			acfg.Spec.ForceMisspecEpoch = *misspec
			var audit []obs.DecisionEntry
			if *explain {
				acfg.OnDecision = func(d adaptive.Decision) {
					audit = append(audit, obs.DecisionFromAudit("", d))
				}
			}
			res, err := c.RunAdaptive(target, acfg)
			if err != nil {
				fmt.Printf("%-10s inapplicable: %v\n", m, err)
				return
			}
			got = res.Env.Checksum()
			fmt.Printf("%-10s checksum %016x  %v  (windows %d, switches %d, engine windows [domore speccross barrier domore-sharded] %v)\n",
				m, got, time.Since(start).Round(time.Microsecond),
				res.Stats.Windows, res.Stats.Switches, res.Stats.EngineWindows)
			if *explain {
				fmt.Print(renderDecisions(audit))
			}
		}
		if got != want {
			fmt.Fprintf(os.Stderr, "FAIL: %s checksum %016x != sequential %016x\n", m, got, want)
			os.Exit(1)
		}
	}

	runAll := func() {
		runMode("barrier")
		runMode("domore")
		runMode("domore-sharded")
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
	case "barrier", "domore", "domore-sharded", "speccross", "adaptive":
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

// runDOMORE builds and verifies the region's DOMORE plan, then runs it on
// the single or the sharded scheduler.
func runDOMORE(c *core.Compiled, region *ir.Loop, sharded bool, opts domore.Options) (*core.DomoreResult, error) {
	par, err := c.PlanDOMORE(region)
	if err != nil {
		return nil, err
	}
	if sharded {
		return c.RunDOMOREShardedPlanned(par, region, opts)
	}
	return c.RunDOMOREPlanned(par, region, opts)
}

// runSpecCross runs the region under SPECCROSS: gated by a fresh §4.4
// profile when profile is set, with unbounded speculation otherwise.
func runSpecCross(c *core.Compiled, region *ir.Loop, cfg speccross.Config, profile bool) (*core.SpecCrossResult, error) {
	prof := speccross.ProfileResult{MinDistance: speccross.NoConflict}
	if profile {
		var err error
		if prof, err = c.ProfileRegion(region, cfg.SigKind); err != nil {
			return nil, err
		}
	}
	return c.RunSpecCrossProfiled(region, cfg, prof)
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

// runSweep compiles the region into an instruction-counted virtual-time
// trace and prints the scalability series the paper's figures plot: the
// barrier baseline, DOMORE's pipeline, and SPECCROSS with the profiled
// speculative range.
func runSweep(c *core.Compiled, target *ir.Loop) {
	fresh := interp.NewEnv(c.Prog)
	r, err := speccrossgen.New(c.Prog, c.Dep, target, fresh, 1)
	if err != nil {
		fatal(err)
	}
	tr := r.Trace(0)
	pr := r.Profile(signature.Exact)
	dist, _ := pr.Recommended(24)
	seq := tr.SeqTime()
	m := sim.DefaultModel()
	fmt.Printf("virtual-time sweep (%d epochs, %d tasks, min dependence distance %s)\n",
		len(tr.Epochs), tr.Tasks(), distText(pr))
	fmt.Printf("%8s %12s %12s %12s\n", "threads", "barrier", "domore", "speccross")
	for th := 2; th <= 24; th += 2 {
		bar := sim.SimBarrier(tr, th, m)
		dom := sim.SimDomore(tr, th-1, m)
		spec := sim.SimSpecCross(tr, sim.SpecConfig{
			Workers: th - 1, CheckpointEvery: len(tr.Epochs), SpecDistance: dist,
		}, m)
		fmt.Printf("%8d %11.2fx %11.2fx %11.2fx\n", th, bar.Speedup(seq), dom.Speedup(seq), spec.Speedup(seq))
	}
}

func distText(pr speccross.ProfileResult) string {
	if pr.MinDistance == speccross.NoConflict {
		return "* (none)"
	}
	return fmt.Sprintf("%d", pr.MinDistance)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crossinv:", err)
	os.Exit(1)
}
