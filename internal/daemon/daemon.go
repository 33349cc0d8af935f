// Package daemon is crossinvd's engine room: a long-running service that
// accepts many concurrent program invocations over HTTP+JSON and serves
// them hot from a content-addressed plan/profile cache. It is the paper's
// premise — amortize analysis across invocations — applied at service
// scale: the first invocation of a program pays parse, dependence
// analysis, the sequential oracle, and the §4.4 profiling pass; every
// repeat skips all of it (internal/plancache persists the serializable
// artifacts across restarts, an in-memory program cache keeps the live IR
// and transforms hot within one).
//
// Surface:
//
//	POST /run      execute a program under one engine (JSON in/out)
//	GET  /plans    list cached plans (disk entries + hot programs)
//	GET  /healthz  liveness + admission state; 503 while draining
//	/metrics, /summary, /debug/pprof/  — the internal/obs mux
//
// Concurrency contract: a shared worker budget with admission control —
// at most MaxInFlight invocations execute, at most QueueDepth more wait
// (bounded, with timeout), the rest are rejected 429 immediately. Each
// admitted invocation gets its own environment and trace recorder
// (per-request isolation; the compiled IR and transforms are shared
// read-only). Shutdown drains gracefully: stop admitting, finish every
// in-flight invocation, flush the cache.
//
// In front of admission sits the flight table (flight.go). LNL programs are
// closed — no input beyond the source text — so a request identical to one
// this server has already executed and verified against the sequential
// oracle is answered from memory, and one identical to a request still
// executing waits for that execution instead of starting its own. Neither
// takes an execution slot. Every key is therefore executed and verified at
// least once per server lifetime before it is ever served, and only verified
// 200s are kept; RunRequest.Fresh asks for a real execution regardless.
package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"crossinv/internal/obs"
	"crossinv/internal/plancache"
	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/trace"
)

// Config tunes the daemon.
type Config struct {
	// CacheDir roots the on-disk plan cache (required).
	CacheDir string
	// MaxInFlight bounds concurrently executing invocations (default 8).
	MaxInFlight int
	// QueueDepth bounds invocations waiting for an execution slot; the
	// QueueDepth+1'th concurrent waiter is rejected 429 without waiting
	// (default 2×MaxInFlight).
	QueueDepth int
	// QueueTimeout bounds how long a queued invocation waits before a 429
	// (default 2s).
	QueueTimeout time.Duration
	// DefaultWorkers is the engine worker count when a request does not
	// name one (default 4).
	DefaultWorkers int
	// FlightDir is where the flight recorder writes dump artifacts; empty
	// keeps dumps in-memory only (the /debug/flightrec window still works).
	FlightDir string
	// LatencyBudget arms the flight recorder's p99 trigger (see
	// obs.FlightConfig.LatencyBudget); zero disables it.
	LatencyBudget time.Duration
	// TraceRingCap sizes each per-invocation recorder's event rings
	// (default 4096 — smaller than trace.DefaultRingCap because recorders
	// are pooled per request, not per process).
	TraceRingCap int
	// DisableTracing turns off request-scoped recorders entirely: no
	// spans, no flight-recorder event retention, engines run untraced.
	// The overhead benchmark's baseline; not recommended in production.
	DisableTracing bool
	// ResultCacheEntries bounds the flight table's settled results and,
	// with the same number, the in-memory program cache (default 8192). A
	// result is a key and four scalars; a program is its compiled IR.
	// Negative disables result serving and coalescing — every request
	// executes — and leaves the program cache at the default bound.
	ResultCacheEntries int
}

const defaultResultCacheEntries = 8192

func (c *Config) fill() error {
	if c.CacheDir == "" {
		return fmt.Errorf("daemon: Config.CacheDir is required")
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxInFlight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = 4
	}
	if c.TraceRingCap <= 0 {
		c.TraceRingCap = 4096
	}
	if c.ResultCacheEntries == 0 {
		c.ResultCacheEntries = defaultResultCacheEntries
	}
	return nil
}

// Server is the daemon state. Create with New, serve with Serve, stop
// with Shutdown.
type Server struct {
	cfg   Config
	store *plancache.Store

	// rec is the daemon-lifetime recorder behind /metrics — engines do
	// not write to it (each invocation gets a private recorder); it
	// exists so the obs mux has a live registry to decorate with the
	// daemon's own counters and the plan cache's.
	rec *trace.Recorder

	// Request-scoped observability: invSeq stamps invocation ids, recPool
	// recycles per-request recorders (Reset between uses), decisions is
	// the adaptive-controller journal behind /debug/decisions, flight the
	// always-on anomaly recorder behind /debug/flightrec.
	invSeq    atomic.Int64
	recPool   sync.Pool
	decisions *obs.DecisionLog
	flight    *obs.FlightRecorder

	mu       sync.Mutex
	programs *lru[string, *program]

	// results is the flight table: verified results served from memory and
	// identical in-flight requests coalesced onto one execution. Per server,
	// like every cache here; nil when Config.ResultCacheEntries is negative.
	results *flightTable

	inflight chan struct{}
	waiting  atomic.Int64
	running  atomic.Int64
	draining atomic.Bool
	done     chan struct{}
	// drainMu orders request registration (wg.Add under RLock, refused
	// once draining) against Shutdown (sets draining under Lock, then
	// wg.Wait) — without it, an Add could race Wait at counter zero.
	drainMu      sync.RWMutex
	wg           sync.WaitGroup
	shutdownOnce sync.Once
	shutdownErr  error
	drained      chan struct{}

	admitted        atomic.Int64
	completed       atomic.Int64
	failed          atomic.Int64
	rejectedFull    atomic.Int64
	rejectedTimeout atomic.Int64
	rejectedDrain   atomic.Int64

	// Analysis-span counters: how many times each cold-path stage
	// actually ran. The warm-path acceptance test pins these exactly —
	// a round of cache hits must not move any of them.
	spanCompile atomic.Int64
	spanOracle  atomic.Int64
	spanProfile atomic.Int64
	spanPlan    atomic.Int64 // DOMORE partition/slice/MTCG pipeline

	cacheHot  atomic.Int64
	cacheWarm atomic.Int64
	cacheCold atomic.Int64

	// Checker pre-filter totals across all invocations, accumulated from
	// each request recorder at finish. The hit rate is the cheap
	// checker-pressure signal the adaptive monitor samples per window;
	// these daemon-lifetime sums are its /metrics aggregate. Zero when
	// tracing is disabled.
	prefilterChecks atomic.Int64
	prefilterHits   atomic.Int64
}

// New opens the plan cache and builds a server.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	store, err := plancache.Open(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	programs := defaultResultCacheEntries
	var results *flightTable
	if cfg.ResultCacheEntries > 0 {
		programs = cfg.ResultCacheEntries
		results = newFlightTable(cfg.ResultCacheEntries)
	}
	s := &Server{
		cfg:       cfg,
		store:     store,
		rec:       trace.NewRecorder(),
		programs:  newLRU[string, *program](programs),
		results:   results,
		inflight:  make(chan struct{}, cfg.MaxInFlight),
		done:      make(chan struct{}),
		drained:   make(chan struct{}),
		decisions: obs.NewDecisionLog(0),
		flight: obs.NewFlightRecorder(obs.FlightConfig{
			Dir:           cfg.FlightDir,
			LatencyBudget: cfg.LatencyBudget,
		}),
	}
	s.recPool.New = func() any { return trace.NewRecorderCap(cfg.TraceRingCap) }
	return s, nil
}

// Decisions exposes the adaptive-decision journal (tests, in-process
// embedders).
func (s *Server) Decisions() *obs.DecisionLog { return s.decisions }

// Flight exposes the flight recorder (tests, in-process embedders).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// Store exposes the plan cache (tests and /plans).
func (s *Server) Store() *plancache.Store { return s.store }

// Handler builds the daemon's full HTTP surface: the obs mux (metrics,
// summary, pprof) decorated with daemon gauges, plus /run, /plans, and
// /healthz.
func (s *Server) Handler() http.Handler {
	mux := obs.NewMux(s.rec, s.decorate)
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/plans", s.handlePlans)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/decisions", s.decisions.Handler())
	mux.HandleFunc("/debug/flightrec", s.flight.Handler())
	return mux
}

// Serve accepts connections on ln until Shutdown. A clean shutdown
// returns nil.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	go func() {
		// Release the listener last, once Shutdown's drain is complete:
		// until then a late request must still reach handleRun and get
		// its 503, not a refused or reset connection.
		<-s.drained
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Shutdown drains the daemon: stop admitting (healthz flips to 503, /run
// answers 503), wait for every in-flight invocation to complete, close the
// engine runtimes they left parked in the engine pool, flush the plan
// cache, and release the listener. Idempotent; every caller blocks until
// the drain is complete.
func (s *Server) Shutdown() error {
	s.shutdownOnce.Do(func() {
		s.drainMu.Lock()
		s.draining.Store(true)
		s.drainMu.Unlock()
		close(s.done)
		s.wg.Wait()
		engine.CloseIdle()
		s.shutdownErr = s.store.Flush()
		close(s.drained)
	})
	<-s.drained
	return s.shutdownErr
}

// beginRequest registers a request with the drain tracker. It returns
// false once draining: the caller must answer 503 without executing.
func (s *Server) beginRequest() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.wg.Add(1)
	return true
}

func (s *Server) programCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.programs.len()
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Counters snapshots the daemon metrics (the same numbers /metrics
// exports), merged with the plan cache's.
func (s *Server) Counters() map[string]int64 {
	out := s.store.Counters()
	out["daemon.admitted"] = s.admitted.Load()
	out["daemon.completed"] = s.completed.Load()
	out["daemon.failed"] = s.failed.Load()
	out["daemon.rejected.queue_full"] = s.rejectedFull.Load()
	out["daemon.rejected.timeout"] = s.rejectedTimeout.Load()
	out["daemon.rejected.draining"] = s.rejectedDrain.Load()
	out["daemon.span.compile"] = s.spanCompile.Load()
	out["daemon.span.oracle"] = s.spanOracle.Load()
	out["daemon.span.profile"] = s.spanProfile.Load()
	out["daemon.span.plan"] = s.spanPlan.Load()
	out["daemon.cache.hot"] = s.cacheHot.Load()
	out["daemon.cache.warm"] = s.cacheWarm.Load()
	out["daemon.cache.cold"] = s.cacheCold.Load()
	if t := s.results; t != nil {
		out["daemon.result.hit"] = t.hits.Load()
		out["daemon.result.miss"] = t.misses.Load()
		out["daemon.result.coalesced"] = t.coalesced.Load()
		out["daemon.result.evicted"] = t.evicted.Load()
		out["daemon.result.entries"] = int64(t.entries())
	}
	out["daemon.programs"] = int64(s.programCount())
	out["checker.prefilter.checks"] = s.prefilterChecks.Load()
	out["checker.prefilter.hits"] = s.prefilterHits.Load()
	for name, v := range s.flight.Counters() {
		out[name] = v
	}
	return out
}

// levels names the Counters entries that are current sizes, not monotone
// totals: /metrics exports them as gauges.
var levels = map[string]bool{"daemon.programs": true, "daemon.result.entries": true}

// decorate injects the daemon counters and gauges into each /metrics
// scrape's registry.
func (s *Server) decorate(g *trace.Registry) {
	for name, v := range s.Counters() {
		if levels[name] {
			g.SetGauge(name, float64(v))
		} else {
			g.AddCounter(name, v)
		}
	}
	g.SetGauge("daemon.inflight", float64(s.running.Load()))
	g.SetGauge("daemon.waiting", float64(s.waiting.Load()))
	if s.draining.Load() {
		g.SetGauge("daemon.draining", 1)
	} else {
		g.SetGauge("daemon.draining", 0)
	}
}

// admitErr classifies an admission rejection. timeout marks the
// queue-timeout flavor, which doubles as a flight-recorder trigger: a
// request waiting out the full queue timeout means the daemon has been
// saturated for that long, which is exactly when an operator wants a
// window snapshot.
type admitErr struct {
	status  int
	msg     string
	timeout bool
}

func (e *admitErr) Error() string { return e.msg }

// admit acquires an execution slot under the shared worker budget, or
// rejects: 503 while draining, 429 when the wait queue is full or the
// queue timeout expires. On success the returned release func must be
// called when the invocation finishes.
func (s *Server) admit() (release func(), aerr *admitErr) {
	if s.draining.Load() {
		s.rejectedDrain.Add(1)
		return nil, &admitErr{status: http.StatusServiceUnavailable, msg: "daemon is draining"}
	}
	release = func() {
		s.running.Add(-1)
		<-s.inflight
	}
	select {
	case s.inflight <- struct{}{}:
		// Fast path: a slot was free. Even if draining flips now, this
		// invocation was accepted and will run to completion.
		s.admitted.Add(1)
		s.running.Add(1)
		return release, nil
	default:
	}
	// Queue path: bounded waiters, bounded wait.
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		s.rejectedFull.Add(1)
		return nil, &admitErr{status: http.StatusTooManyRequests, msg: "admission queue full"}
	}
	defer s.waiting.Add(-1)
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.inflight <- struct{}{}:
		if s.draining.Load() {
			// Drain began while queued: this invocation was never
			// accepted, so bounce it rather than prolong the drain.
			<-s.inflight
			s.rejectedDrain.Add(1)
			return nil, &admitErr{status: http.StatusServiceUnavailable, msg: "daemon is draining"}
		}
		s.admitted.Add(1)
		s.running.Add(1)
		return release, nil
	case <-timer.C:
		s.rejectedTimeout.Add(1)
		return nil, &admitErr{status: http.StatusTooManyRequests, msg: "admission queue timeout", timeout: true}
	case <-s.done:
		s.rejectedDrain.Add(1)
		return nil, &admitErr{status: http.StatusServiceUnavailable, msg: "daemon is draining"}
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req RunRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, &RunResponse{Error: "bad request: " + err.Error()})
		return
	}

	if !s.beginRequest() {
		s.rejectedDrain.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, &RunResponse{Error: "daemon is draining"})
		return
	}
	defer s.wg.Done()

	inv := s.beginInvocation()
	resp, status := s.serve(&req, inv, true)
	s.finishInvocation(inv, &req, resp, status)
	writeJSON(w, status, resp)
}

// PlansSchema versions the /plans document.
const PlansSchema = "crossinv-plans/v1"

func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	type plansDoc struct {
		Schema   string           `json:"schema"`
		Entries  []plancache.Info `json:"entries"`
		Programs []programInfo    `json:"programs"`
		Counters map[string]int64 `json:"counters"`
	}
	doc := plansDoc{
		Schema:   PlansSchema,
		Entries:  s.store.List(),
		Programs: s.programInfos(),
		Counters: s.Counters(),
	}
	writeJSON(w, http.StatusOK, &doc)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status   string `json:"status"`
		InFlight int64  `json:"inflight"`
		Waiting  int64  `json:"waiting"`
		Admitted int64  `json:"admitted"`
		Programs int    `json:"programs"`
	}
	h := health{
		Status:   "ok",
		InFlight: s.running.Load(),
		Waiting:  s.waiting.Load(),
		Admitted: s.admitted.Load(),
	}
	h.Programs = s.programCount()
	status := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, &h)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
