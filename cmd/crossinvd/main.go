// Command crossinvd is the persistent parallel-execution daemon: it
// accepts LNL programs over HTTP+JSON, compiles and analyzes each one at
// most once, and serves repeat invocations hot from an in-memory program
// cache backed by a content-addressed on-disk plan/profile store — the
// paper's amortize-analysis-across-invocations premise as a service.
//
// Usage:
//
//	crossinvd [flags]
//
//	-addr           listen address (default localhost:9123; :0 picks a port)
//	-cache          plan-cache directory (default <os temp>/crossinv-plancache)
//	-max-inflight   concurrently executing invocations (default 8)
//	-queue          admission queue depth (default 2×max-inflight)
//	-queue-timeout  max time a queued invocation waits (default 2s)
//	-workers        default engine worker count per invocation (default 4)
//	-flight-dir     flight-recorder dump directory (default <cache>/flightrec)
//	-latency-budget p99 latency budget arming the flight recorder's
//	                latency trigger (default 0: disabled)
//	-no-trace       disable request-scoped tracing (spans, flight
//	                recorder retention) — benchmark baseline only
//	-result-cache   verified results kept in memory, and compiled programs
//	                kept live (default 8192 each; negative: execute every
//	                request, serve and coalesce nothing)
//
// A request identical to one the daemon has already executed and verified
// against the sequential oracle is answered from memory ("memo": true), and
// one identical to a request still executing waits for that execution
// ("coalesced": true); "fresh": true in the request forces a real run.
//
// Endpoints: POST /run, GET /plans, GET /healthz, plus /metrics, /summary
// and /debug/pprof/ from the internal/obs mux, plus the request-scoped
// observability surface: GET /debug/decisions (adaptive decision audit,
// ?invocation= filters) and GET /debug/flightrec (always-on flight
// recorder; ?dump=1 forces a snapshot). Drive it with
// `crossinv -remote ADDR prog.lnl` or raw JSON.
//
// SIGTERM/SIGINT drain gracefully: the daemon stops admitting (503),
// finishes every accepted invocation, flushes the cache, then exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"crossinv/internal/daemon"
)

var (
	addr         = flag.String("addr", "localhost:9123", "listen address")
	cacheDir     = flag.String("cache", "", "plan-cache directory (default <os temp>/crossinv-plancache)")
	maxInflight  = flag.Int("max-inflight", 8, "max concurrently executing invocations")
	queueDepth   = flag.Int("queue", 0, "admission queue depth (0: 2x max-inflight)")
	queueTimeout = flag.Duration("queue-timeout", 2*time.Second, "max time a queued invocation waits for a slot")
	workers      = flag.Int("workers", 4, "default engine worker count per invocation")
	flightDir    = flag.String("flight-dir", "", "flight-recorder dump directory (default <cache>/flightrec)")
	latBudget    = flag.Duration("latency-budget", 0, "p99 latency budget arming the flight recorder's latency trigger (0: disabled)")
	noTrace      = flag.Bool("no-trace", false, "disable request-scoped tracing (benchmark baseline only)")
	resultCache  = flag.Int("result-cache", 0, "verified results and live programs kept in memory (0: 8192; negative: serve nothing from memory)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crossinvd:", err)
		os.Exit(1)
	}
}

func run() error {
	dir := *cacheDir
	if dir == "" {
		dir = filepath.Join(os.TempDir(), "crossinv-plancache")
	}
	fdir := *flightDir
	if fdir == "" {
		fdir = filepath.Join(dir, "flightrec")
	}
	s, err := daemon.New(daemon.Config{
		CacheDir:           dir,
		MaxInFlight:        *maxInflight,
		QueueDepth:         *queueDepth,
		QueueTimeout:       *queueTimeout,
		DefaultWorkers:     *workers,
		FlightDir:          fdir,
		LatencyBudget:      *latBudget,
		DisableTracing:     *noTrace,
		ResultCacheEntries: *resultCache,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is the startup handshake: tests and
	// scripts listen on :0 and scrape the port from here.
	fmt.Printf("crossinvd: serving on http://%s (cache %s)\n", ln.Addr(), dir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Printf("crossinvd: %v — draining\n", sig)
		_ = s.Shutdown()
	}()

	if err := s.Serve(ln); err != nil {
		return err
	}
	// Serve returns once the listener is closed; Shutdown blocks until
	// every accepted invocation completed and the cache is flushed.
	if err := s.Shutdown(); err != nil {
		return err
	}
	c := s.Counters()
	// admitted/completed count invocations that held an execution slot;
	// the ones answered from the flight table are listed beside them.
	fmt.Printf("crossinvd: drained (admitted %d, completed %d, rejected %d, cache hot/warm/cold %d/%d/%d, served from memory %d, coalesced %d)\n",
		c["daemon.admitted"], c["daemon.completed"],
		c["daemon.rejected.queue_full"]+c["daemon.rejected.timeout"]+c["daemon.rejected.draining"],
		c["daemon.cache.hot"], c["daemon.cache.warm"], c["daemon.cache.cold"],
		c["daemon.result.hit"], c["daemon.result.coalesced"])
	return nil
}
