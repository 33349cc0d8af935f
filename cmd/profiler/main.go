// Command profiler runs the SPECCROSS dependence-distance profiling pass
// (§4.4) over benchmarks or LNL programs, reporting the observed conflicts
// and the minimum dependence distance that bounds safe speculation — the
// inputs to Table 5.3. For a benchmark DOMORE applies to it also measures
// Table 5.2's scheduler/worker ratio (see schedulerRatio).
//
// Usage:
//
//	profiler -bench CG               # profile a registered benchmark
//	profiler -bench all              # profile all SPECCROSS and DOMORE benchmarks
//	profiler <program.lnl>           # profile an LNL program's region
//
//	-scale N    benchmark input scale (default 1)
//	-window N   epochs of history to compare against (default 6)
//	-workers N  report profitability for this worker count (default 24)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"crossinv/internal/core"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/shadow"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"

	_ "crossinv/internal/workloads/blackscholes"
	_ "crossinv/internal/workloads/cg"
	_ "crossinv/internal/workloads/eclat"
	_ "crossinv/internal/workloads/equake"
	_ "crossinv/internal/workloads/fdtd"
	_ "crossinv/internal/workloads/fluidanimate"
	_ "crossinv/internal/workloads/jacobi"
	_ "crossinv/internal/workloads/llubench"
	_ "crossinv/internal/workloads/loopdep"
	_ "crossinv/internal/workloads/phased"
	_ "crossinv/internal/workloads/symm"
)

var (
	bench    = flag.String("bench", "", "registered benchmark name, or \"all\"")
	scale    = flag.Int("scale", 1, "benchmark input scale")
	window   = flag.Int("window", 6, "profiling window in epochs")
	nworkers = flag.Int("workers", 24, "worker count for the profitability check")
)

func main() {
	flag.Parse()
	switch {
	case *bench == "all":
		for _, e := range workloads.All() {
			if e.SpecOK || e.DomoreOK {
				profileBench(os.Stdout, e, e.SpecOK)
			}
		}
	case *bench != "":
		e, err := workloads.Find(*bench)
		if err != nil {
			fatal(err)
		}
		profileBench(os.Stdout, e, true)
	case flag.NArg() == 1:
		if err := profileLNL(os.Stdout, flag.Arg(0)); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: profiler [-bench NAME|all] [<program.lnl>]")
		os.Exit(2)
	}
}

// profileBench prints e's SPECCROSS profile when spec is set, and its
// scheduler/worker ratio when DOMORE applies to it.
func profileBench(w io.Writer, e workloads.Entry, spec bool) {
	if spec {
		if sw, ok := e.Make(*scale).(speccross.Workload); ok {
			report(w, e.Name, speccross.Profile(sw, signature.Exact, *window))
		} else {
			fmt.Fprintf(w, "%s: no SPECCROSS adapter\n", e.Name)
		}
	}
	if e.DomoreOK {
		dw := e.Make(*scale).(domore.Workload)
		sched, work, iters := schedulerRatio(dw)
		fmt.Fprintf(w, "%s: scheduler/worker %.1f %% (scheduler %.0f ns, worker %.0f ns per iteration, %d iterations on one thread)\n",
			e.Name, 100*float64(sched)/float64(work), float64(sched)/float64(iters), float64(work)/float64(iters), iters)
	}
}

// schedulerRatio measures Table 5.2's scheduler/worker ratio for w: it runs
// the whole region in order on the calling thread and times, per
// invocation, the scheduler's work apart from the worker's. The scheduler's
// is what DOMORE's guard samples: computeAddr and one shadow-store exchange
// per address. The worker's is Sequential and Execute. Every interval less
// one clock read is what is summed.
func schedulerRatio(w domore.Workload) (sched, work time.Duration, iters int64) {
	const reads = 256
	t0 := time.Now()
	for range reads {
		time.Now()
	}
	clock := time.Since(t0) / reads
	timed := func(d time.Duration) time.Duration { return max(d-clock, 0) }

	sm := shadow.NewSparse()
	var buf []uint64
	for inv := 0; inv < w.Invocations(); inv++ {
		t0 := time.Now()
		w.Sequential(inv)
		t1 := time.Now()
		n := w.Iterations(inv)
		for it := 0; it < n; it++ {
			buf = w.ComputeAddr(inv, it, buf[:0])
			for _, a := range buf {
				sm.Exchange(a, 0, iters+int64(it))
			}
		}
		t2 := time.Now()
		for it := 0; it < n; it++ {
			w.Execute(inv, it, 0)
		}
		t3 := time.Now()
		sched += timed(t2.Sub(t1))
		work += timed(t1.Sub(t0)) + timed(t3.Sub(t2))
		iters += int64(n)
	}
	return sched, work, iters
}

// profileLNL profiles every candidate region of the program at path the way
// the engines do: on the state at region entry, behind the slot gate.
func profileLNL(w io.Writer, path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	c, err := core.Compile(string(src))
	if err != nil {
		return err
	}
	if len(c.Regions) == 0 {
		return fmt.Errorf("%s: no candidate region", path)
	}
	for i, region := range c.Regions {
		res, err := c.ProfileRegion(region, signature.Exact)
		if err != nil {
			fmt.Fprintf(w, "region %d: %v\n", i, err)
			continue
		}
		report(w, fmt.Sprintf("%s region %d", path, i), res)
	}
	return nil
}

func report(w io.Writer, name string, res speccross.ProfileResult) {
	fmt.Fprintf(w, "%s: %d tasks over %d epochs, %d conflicts\n", name, res.Tasks, res.Epochs, res.Conflicts)
	if res.MinDistance == speccross.NoConflict {
		fmt.Fprintf(w, "  min dependence distance: * (none observed — unbounded speculation is safe)\n")
	} else {
		fmt.Fprintf(w, "  min dependence distance: %d tasks\n", res.MinDistance)
	}
	if len(res.PerLoop) > 0 {
		labels := make([]string, 0, len(res.PerLoop))
		for l := range res.PerLoop {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(w, "  loop %-24s min distance %d\n", l, res.PerLoop[l])
		}
	}
	dist, profitable := res.Recommended(*nworkers)
	if profitable {
		if dist == 0 {
			fmt.Fprintf(w, "  recommendation: speculate unbounded with %d workers\n", *nworkers)
		} else {
			fmt.Fprintf(w, "  recommendation: speculate with range %d for %d workers\n", dist, *nworkers)
		}
	} else {
		fmt.Fprintf(w, "  recommendation: do not speculate with %d workers (distance below threshold, §4.4)\n", *nworkers)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profiler:", err)
	os.Exit(1)
}
