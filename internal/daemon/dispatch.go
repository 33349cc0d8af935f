package daemon

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crossinv/internal/core"
	"crossinv/internal/ir"
	"crossinv/internal/obs"
	"crossinv/internal/plancache"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
)

// RunRequest is one invocation: a program and how to execute it.
type RunRequest struct {
	// Source is the LNL program text (required) — the content address.
	Source string `json:"source"`
	// Mode is seq, barrier, domore, speccross, adaptive, or auto (default
	// auto: the profile-informed engine choice). domore-sharded, the name
	// of a DOMORE scheduler since folded into DOMORE's, is read as domore.
	Mode string `json:"mode,omitempty"`
	// Workers overrides the daemon's default engine worker count.
	Workers int `json:"workers,omitempty"`
	// Region indexes the candidate region to parallelize. Negative means
	// the last detected region (the crossinv CLI's default); 0 is the
	// JSON zero value, so "unset" picks the first region.
	Region int `json:"region,omitempty"`
	// Sig selects the signature scheme: range (default), bloom, exact.
	Sig string `json:"sig,omitempty"`
	// Window overrides the adaptive monitoring window.
	Window int `json:"window,omitempty"`
	// Misspec, when positive, forces one artificial misspeculation at
	// that epoch (speccross and adaptive modes). A fault-injection knob:
	// it exercises the rollback/recovery path and trips the flight
	// recorder's misspec-storm trigger on demand.
	Misspec int `json:"misspec,omitempty"`
	// Fresh forces a real execution even when the daemon holds a verified
	// result for this exact request: the request neither waits on an
	// identical one in flight nor is answered from memory, and its success
	// refreshes the retained result. For callers that want the engines'
	// timing, trace or decision journal rather than the answer.
	Fresh bool `json:"fresh,omitempty"`
}

// RunResponse reports one invocation's outcome.
type RunResponse struct {
	OK bool `json:"ok"`
	// Invocation is the request-scoped trace id: the key into
	// /debug/decisions?invocation= and the flight recorder's window.
	Invocation string `json:"invocation,omitempty"`
	Engine     string `json:"engine,omitempty"`
	// Checksum is the executed result; SeqChecksum the sequential oracle
	// it was verified against.
	Checksum    uint64 `json:"checksum,omitempty"`
	SeqChecksum uint64 `json:"seq_checksum,omitempty"`
	// Cache classifies the dispatch path: "hot" (program live in memory —
	// no parse, analysis, oracle, profile, or transform ran), "warm"
	// (compiled fresh, but oracle/profile replayed from the disk cache),
	// "cold" (full pipeline).
	Cache string `json:"cache,omitempty"`
	// AnalysisSpans counts the analysis stages this request actually ran
	// (compile + plan + oracle + profile, where plan is the program's one
	// Lint, which derives and verifies every region's plan). Hot is
	// exactly 0.
	AnalysisSpans int64 `json:"analysis_spans"`
	Regions       int   `json:"regions,omitempty"`
	DurationNs    int64 `json:"duration_ns"`
	// Misspecs is the exact misspeculation count the request's trace
	// recorder observed (0 when tracing is disabled).
	Misspecs int64 `json:"misspecs,omitempty"`
	// Memo marks a response answered from the result cache and Coalesced
	// one that waited on an identical request already executing; either
	// way no engine ran for this request, and Leader names the invocation
	// whose execution (verified against the oracle) produced the answer.
	Memo      bool   `json:"memo,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Leader    string `json:"leader,omitempty"`
	Error     string `json:"error,omitempty"`
}

// spans tallies the analysis stages one request ran.
type spans struct{ compile, oracle, profile, plan int64 }

func (st *spans) total() int64 { return st.compile + st.oracle + st.profile + st.plan }

// program is the in-memory (hot) cache for one source hash: the live
// compiled IR plus every derived artifact, built at most once and shared
// read-only by concurrent invocations.
type program struct {
	hash string
	runs atomic.Int64

	mu         sync.Mutex
	compiled   *core.Compiled
	compileErr error
	facts      []core.RegionFacts
	xdepHash   string
	linted     bool
	lintClean  bool
	oracleDone bool
	oracle     uint64
	regions    map[int]*regionPlan
}

// regionPlan caches per-region artifacts core does not keep: the profile,
// a pure value safe to share across invocations, and the adaptive seed.
type regionPlan struct {
	mu   sync.Mutex
	prof map[signature.Kind]*speccross.ProfileResult
	seed *plancache.AdaptiveSeed
}

type programInfo struct {
	SourceHash string `json:"source_hash"`
	Regions    int    `json:"regions"`
	Runs       int64  `json:"runs"`
	OracleHot  bool   `json:"oracle_hot"`
}

// program returns the live program for a source hash, creating it on first
// sight. The map is LRU-bounded: eviction drops only in-memory artifacts
// (IR, facts, region plans), so an evicted program's next request recompiles
// and replays oracle and profile from the disk cache — warm, not cold.
// Requests already holding an evicted program keep using it.
func (s *Server) program(hash string) *program {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.programs.get(hash)
	if !ok {
		p = &program{hash: hash, regions: map[int]*regionPlan{}}
		s.programs.put(hash, p)
	}
	return p
}

// countServedRun keeps /plans run counts covering requests answered from
// the flight table, and keeps a program whose results are popular resident.
func (s *Server) countServedRun(hash string) {
	s.mu.Lock()
	p, ok := s.programs.get(hash)
	s.mu.Unlock()
	if ok {
		p.runs.Add(1)
	}
}

func (s *Server) programInfos() []programInfo {
	s.mu.Lock()
	progs := make([]*program, 0, s.programs.len())
	s.programs.each(func(_ string, p *program) { progs = append(progs, p) })
	s.mu.Unlock()
	out := make([]programInfo, 0, len(progs))
	for _, p := range progs {
		p.mu.Lock()
		info := programInfo{SourceHash: p.hash, Runs: p.runs.Load(), OracleHot: p.oracleDone}
		if p.compiled != nil {
			info.Regions = len(p.compiled.Regions)
		}
		p.mu.Unlock()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SourceHash < out[j].SourceHash })
	return out
}

// ensureCompiled parses and analyzes the program once per daemon lifetime
// (sticky error: a program that does not compile never recompiles).
func (p *program) ensureCompiled(s *Server, src string, st *spans) (*core.Compiled, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.compiled == nil && p.compileErr == nil {
		c, err := core.Compile(src)
		st.compile++
		s.spanCompile.Add(1)
		if err != nil {
			p.compileErr = err
		} else {
			p.compiled = c
			p.facts = c.Facts()
			p.xdepHash = c.XDep().Hash()
		}
	}
	return p.compiled, p.compileErr
}

// ensureLinted runs the compiled program's Lint once, under a plan span:
// it derives and verifies every region's plan, which later PlanDOMORE calls
// and runs read.
func (p *program) ensureLinted(s *Server, c *core.Compiled, inv *invocation, st *spans) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.linted {
		sp := inv.span(trace.SpanPlan)
		p.lintClean = !c.Lint().HasErrors()
		sp.End()
		p.linted = true
		st.plan++
		s.spanPlan.Add(1)
	}
}

func (p *program) region(idx int) *regionPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	rp, ok := p.regions[idx]
	if !ok {
		rp = &regionPlan{prof: map[signature.Kind]*speccross.ProfileResult{}}
		p.regions[idx] = rp
	}
	return rp
}

// adopt tries to fill the in-memory gaps (oracle, profile, adaptive seed)
// from the disk cache. Verify-on-load: an entry is adopted only when the
// freshly compiled program re-passes the analysis/verify gates (lint
// clean) and the entry's shape matches the compiled region count — on any
// doubt it is ignored and the cold path recomputes. Returns whether the
// disk entry supplied anything.
func (s *Server) adopt(p *program, rp *regionPlan, key plancache.Key, kind signature.Kind) bool {
	p.mu.Lock()
	needOracle := !p.oracleDone
	p.mu.Unlock()
	needProf := false
	if rp != nil {
		rp.mu.Lock()
		needProf = rp.prof[kind] == nil
		rp.mu.Unlock()
	}
	if !needOracle && !needProf {
		return false // fully hot; don't touch disk
	}
	plan, ok := s.store.Get(key)
	if !ok {
		return false
	}
	p.mu.Lock()
	valid := p.compiled != nil && p.lintClean && plan.Regions == len(p.compiled.Regions) &&
		// Verify-on-load for the static verdict: the plan's echoed facts
		// hash must match a fresh analyzer run. The fingerprint already
		// keys on the hash, so a mismatch here means a tampered or
		// colliding entry — recompute rather than trust it.
		(plan.XDepHash == "" || plan.XDepHash == p.xdepHash)
	if valid && needOracle {
		p.oracle = plan.SeqChecksum
		p.oracleDone = true
	}
	p.mu.Unlock()
	if !valid {
		return false
	}
	if rp != nil {
		rp.mu.Lock()
		if plan.Profile != nil && rp.prof[kind] == nil {
			rp.prof[kind] = fromCacheProfile(plan.Profile)
		}
		if rp.seed == nil {
			rp.seed = plan.Adaptive
		}
		rp.mu.Unlock()
	}
	return true
}

// ensureOracle computes (once) the sequential oracle checksum.
func (p *program) ensureOracle(s *Server, c *core.Compiled, st *spans) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.oracleDone {
		sum, err := c.Oracle()
		st.oracle++
		s.spanOracle.Add(1)
		if err != nil {
			return 0, err
		}
		p.oracle = sum
		p.oracleDone = true
	}
	return p.oracle, nil
}

// ensureProfile computes (once per signature kind) the §4.4 conflict
// profile for the region.
func (rp *regionPlan) ensureProfile(s *Server, c *core.Compiled, region *ir.Loop, kind signature.Kind, st *spans) (speccross.ProfileResult, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.prof[kind] == nil {
		pr, err := c.ProfileRegion(region, kind)
		st.profile++
		s.spanProfile.Add(1)
		if err != nil {
			return pr, err
		}
		rp.prof[kind] = &pr
	}
	return *rp.prof[kind], nil
}

func sigKind(name string) (signature.Kind, bool) {
	switch name {
	case "", "range":
		return signature.Range, true
	case "bloom":
		return signature.Bloom, true
	case "exact":
		return signature.Exact, true
	}
	return 0, false
}

func sigName(k signature.Kind) string {
	switch k {
	case signature.Bloom:
		return "bloom"
	case signature.Exact:
		return "exact"
	default:
		return "range"
	}
}

func toCacheProfile(pr *speccross.ProfileResult) *plancache.Profile {
	cp := &plancache.Profile{
		Tasks: pr.Tasks, Epochs: pr.Epochs,
		Conflicts: pr.Conflicts, MinDistance: pr.MinDistance,
	}
	if len(pr.PerLoop) > 0 {
		cp.PerLoop = make(map[string]int64, len(pr.PerLoop))
		for k, v := range pr.PerLoop {
			cp.PerLoop[k] = v
		}
	}
	return cp
}

func fromCacheProfile(cp *plancache.Profile) *speccross.ProfileResult {
	pr := &speccross.ProfileResult{
		Tasks: cp.Tasks, Epochs: cp.Epochs,
		Conflicts: cp.Conflicts, MinDistance: cp.MinDistance,
		PerLoop: map[string]int64{},
	}
	for k, v := range cp.PerLoop {
		pr.PerLoop[k] = v
	}
	return pr
}

func toCacheFacts(fs []core.RegionFacts) []plancache.RegionFacts {
	out := make([]plancache.RegionFacts, len(fs))
	for i, f := range fs {
		out[i] = plancache.RegionFacts{
			Var: f.Var, Pos: f.Pos, AdvisorPlan: f.AdvisorPlan,
			InnerClasses:    append([]string(nil), f.InnerClasses...),
			CrossInvDeps:    f.CrossInvDeps,
			XDepClass:       f.XDepClass,
			XDepMinDistance: f.XDepMinDistance,
			XDepMaxDistance: f.XDepMaxDistance,
		}
	}
	return out
}

// putPlan persists every artifact the request left in memory. Best
// effort: a failed write degrades the next restart to cold, nothing else.
func (s *Server) putPlan(p *program, rp *regionPlan, key plancache.Key, kind signature.Kind, regionIdx, workers, window int) {
	p.mu.Lock()
	plan := plancache.Plan{
		SeqChecksum: p.oracle,
		Regions:     len(p.compiled.Regions),
		RegionIndex: regionIdx,
		Facts:       toCacheFacts(p.facts),
		XDepHash:    p.xdepHash,
		LintClean:   p.lintClean,
	}
	p.mu.Unlock()
	if rp != nil {
		rp.mu.Lock()
		if pr := rp.prof[kind]; pr != nil {
			plan.Profile = toCacheProfile(pr)
			plan.Engine = core.Choose(*pr, workers)
			if window <= 0 {
				window = adaptive.DefaultWindow
			}
			plan.Adaptive = &plancache.AdaptiveSeed{Start: plan.Engine, Window: window}
		}
		rp.mu.Unlock()
	}
	_ = s.store.Put(key, plan)
}

// Execute runs one invocation through the cache-aware dispatch and
// returns the response plus its HTTP status. It is exported for
// in-process callers (tests, the bench harness); handleRun wraps it with
// admission control. In-process invocations get the same request-scoped
// tracing the HTTP path does (flight-recorder retention included).
//
// Status mapping: 400 malformed request, 422 the program itself cannot
// compile or be parallelized as asked (the daemon is healthy), 500 an
// engine failed or verification against the oracle mismatched.
func (s *Server) Execute(req *RunRequest) (*RunResponse, int) {
	inv := s.beginInvocation()
	resp, status := s.serve(req, inv, false)
	s.finishInvocation(inv, req, resp, status)
	return resp, status
}

// ExecuteTraced is Execute plus the invocation's full event capture,
// snapshotted before the recorder is recycled — what the Chrome-export
// golden test and in-process trace consumers use. events is nil when
// tracing is disabled.
func (s *Server) ExecuteTraced(req *RunRequest) (resp *RunResponse, status int, events []trace.Event) {
	inv := s.beginInvocation()
	resp, status = s.serve(req, inv, false)
	// Close the root here so the capture contains the complete tree; the
	// zeroed Span makes finishInvocation's End a no-op. Copy the events:
	// they may alias live ring storage, and the recorder is about to be
	// recycled for another request.
	inv.root.End()
	inv.root = trace.Span{}
	if evs := inv.rec.Events(); evs != nil {
		events = append([]trace.Event(nil), evs...)
	}
	s.finishInvocation(inv, req, resp, status)
	return resp, status, events
}

// runParams is a request's validated, default-resolved shape: computed once
// per request, it keys the flight table and parameterizes execute. bad holds
// the 400 message of a malformed request, which execute reports.
type runParams struct {
	hash    string
	mode    string
	kind    signature.Kind
	workers int
	bad     string
}

func (s *Server) params(req *RunRequest) runParams {
	p := runParams{mode: req.Mode, workers: req.Workers}
	if req.Source == "" {
		p.bad = "empty source"
		return p
	}
	switch p.mode {
	case "":
		p.mode = "auto"
	case "domore-sharded":
		p.mode = "domore"
	}
	switch p.mode {
	case "seq", "barrier", "domore", "speccross", "adaptive", "auto":
	default:
		p.bad = fmt.Sprintf("unknown mode %q", p.mode)
		return p
	}
	var ok bool
	if p.kind, ok = sigKind(req.Sig); !ok {
		p.bad = fmt.Sprintf("unknown signature kind %q", req.Sig)
		return p
	}
	if p.workers <= 0 {
		p.workers = s.cfg.DefaultWorkers
	}
	p.hash = core.SourceHash(req.Source)
	return p
}

// serve answers one request: from the flight table when its key is settled
// or already executing, otherwise by executing it — as the key's leader when
// the request is cacheable. admit is true on the HTTP path; in-process
// callers take no execution slot.
//
// The table sits in front of admission on purpose: a hit or a follower uses
// no engine, so it is never queued behind running ones and never shed. The
// only queueing a follower inherits is its leader's own admission wait,
// which QueueTimeout bounds; if the leader is refused, so are its followers,
// with the leader's status.
func (s *Server) serve(req *RunRequest, inv *invocation, admit bool) (resp *RunResponse, status int) {
	start := time.Now()
	p := s.params(req)
	key := flightKey{hash: p.hash, mode: p.mode, kind: p.kind, workers: p.workers, region: max(req.Region, -1), window: max(req.Window, 0)}

	// Forced misspeculation must really run and Fresh asks to: both bypass
	// the table entirely, never leading followers either.
	if p.bad == "" && s.results != nil && req.Misspec <= 0 && !req.Fresh {
		res, fl, lead := s.results.join(key, inv.id)
		if !lead {
			return s.answer(inv, p.hash, start, res, fl)
		}
		// Settle on every path out, a panic outside execute included (resp
		// is still nil then): followers block on this flight.
		defer func() {
			if resp == nil {
				resp, status = &RunResponse{Invocation: inv.id, Error: "leader " + inv.id + " did not complete"}, 500
			}
			s.results.settle(key, fl, resp, status)
		}()
	}

	if admit {
		adm := inv.span(trace.SpanAdmission)
		release, aerr := s.admit()
		adm.End()
		if aerr != nil {
			if aerr.timeout {
				s.flight.RecordTrigger(obs.TriggerAdmissionTimeout, aerr.msg, inv.id)
			}
			return &RunResponse{Invocation: inv.id, Error: aerr.msg}, aerr.status
		}
		defer release()
	}
	resp, status = s.executeRecovering(req, p, inv)
	if admit {
		if status >= 500 || (status >= 400 && status != http.StatusUnprocessableEntity) {
			s.failed.Add(1)
		} else {
			s.completed.Add(1)
		}
	}
	if req.Fresh && s.results != nil && verified(resp, status) {
		s.results.refresh(key, resp)
	}
	return resp, status
}

// answer builds the response of a request the flight table serves: a hit on
// the settled result res (fl nil), or a follower of the execution fl, whose
// outcome it waits for and shares — the leader's error and status included.
func (s *Server) answer(inv *invocation, hash string, start time.Time, res result, fl *flight) (*RunResponse, int) {
	lsp := inv.span(trace.SpanCacheLookup)
	status, errmsg := 200, ""
	if fl != nil {
		<-fl.done
		res, status, errmsg = fl.res, fl.status, fl.errmsg
	}
	lsp.End()
	resp := &RunResponse{Invocation: inv.id, Leader: res.leader, Memo: fl == nil, Coalesced: fl != nil, Error: errmsg}
	if status == 200 {
		// "hot" and zero analysis spans by their definitions: nothing was
		// parsed, analyzed, profiled or planned for this request.
		resp.OK, resp.Engine, resp.Regions, resp.Cache = true, res.engine, res.regions, "hot"
		resp.Checksum, resp.SeqChecksum = res.checksum, res.checksum
		s.countCache("hot")
		s.countServedRun(hash)
	}
	resp.DurationNs = time.Since(start).Nanoseconds()
	return resp, status
}

// executeRecovering is execute with a panic turned into a 500. An engine
// entry point tears its runtime down and re-raises on the calling goroutine
// — this one — whatever panicked on one of its threads, so recovering here
// is what keeps a faulting worker from taking the process down: the request
// fails, its slot is released and its followers are settled like any other.
func (s *Server) executeRecovering(req *RunRequest, in runParams, inv *invocation) (resp *RunResponse, status int) {
	defer func() {
		if r := recover(); r != nil {
			resp = &RunResponse{Invocation: inv.id, Error: fmt.Sprintf("%s: engine panicked: %v", in.mode, r)}
			status = http.StatusInternalServerError
		}
	}()
	return s.execute(req, in, inv)
}

// execute is the dispatch body: every stage is wrapped in a request-lane
// span parented under inv's root, and engines write to inv's recorder.
func (s *Server) execute(req *RunRequest, in runParams, inv *invocation) (*RunResponse, int) {
	start := time.Now()
	resp := &RunResponse{Invocation: inv.id}
	fail := func(status int, format string, args ...any) (*RunResponse, int) {
		resp.Error = fmt.Sprintf(format, args...)
		resp.DurationNs = time.Since(start).Nanoseconds()
		return resp, status
	}

	if in.bad != "" {
		return fail(400, "%s", in.bad)
	}
	mode, kind, workers := in.mode, in.kind, in.workers

	p := s.program(in.hash)
	p.runs.Add(1)
	st := &spans{}
	csp := inv.span(trace.SpanCompile)
	c, err := p.ensureCompiled(s, req.Source, st)
	csp.End()
	if err != nil {
		resp.AnalysisSpans = st.total()
		return fail(422, "compile: %v", err)
	}
	p.ensureLinted(s, c, inv, st)
	resp.Regions = len(c.Regions)

	regionIdx := req.Region
	if regionIdx < 0 {
		regionIdx = len(c.Regions) - 1
		if regionIdx < 0 {
			regionIdx = 0
		}
	}
	p.mu.Lock()
	xdepHash := p.xdepHash
	p.mu.Unlock()
	key := plancache.Key{
		SourceHash:  p.hash,
		Fingerprint: plancache.Fingerprint(core.PipelineVersion, regionIdx, sigName(kind), xdepHash),
	}

	// Sequential mode is its own oracle: run, record, done.
	if mode == "seq" {
		env, rerr := c.RunSequential()
		if rerr != nil {
			return fail(422, "sequential: %v", rerr)
		}
		sum := env.Checksum()
		p.mu.Lock()
		freshOracle := !p.oracleDone
		if freshOracle {
			p.oracle = sum
			p.oracleDone = true
		}
		p.mu.Unlock()
		if freshOracle {
			s.putPlan(p, nil, key, kind, regionIdx, workers, req.Window)
		}
		resp.OK = true
		resp.Engine = "seq"
		resp.Checksum = sum
		resp.SeqChecksum = sum
		resp.Cache = cacheLabel(st, false)
		s.countCache(resp.Cache)
		resp.AnalysisSpans = st.total()
		resp.DurationNs = time.Since(start).Nanoseconds()
		return resp, 200
	}

	region, err := c.Region(regionIdx)
	if err != nil {
		return fail(422, "region %d: %v", regionIdx, err)
	}
	rp := p.region(regionIdx)
	lsp := inv.span(trace.SpanCacheLookup)
	diskHit := s.adopt(p, rp, key, kind)
	lsp.End()

	osp := inv.span(trace.SpanOracle)
	oracle, err := p.ensureOracle(s, c, st)
	osp.End()
	if err != nil {
		resp.AnalysisSpans = st.total()
		return fail(422, "oracle: %v", err)
	}

	// The supplier wraps the cached profile in its span; Run calls it only
	// when the engine it runs needs the profile. stage names the stage that
	// failed, for the 422's prefix.
	var stage string
	plan := core.Plan{
		Profile: func() (pr speccross.ProfileResult, err error) {
			defer inv.span(trace.SpanProfile).End()
			if pr, err = rp.ensureProfile(s, c, region, kind, st); err != nil {
				stage = "profile"
			}
			return pr, err
		},
	}
	p.mu.Lock()
	if regionIdx < len(p.facts) {
		plan.Facts = p.facts[regionIdx]
	}
	p.mu.Unlock()
	window := req.Window
	if window <= 0 {
		rp.mu.Lock()
		if rp.seed != nil {
			window = rp.seed.Window
		}
		rp.mu.Unlock()
	}

	esp := inv.span(trace.SpanExecute)
	res, rerr := c.Run(region, plan, core.Options{
		Engine: mode, Workers: workers, SigKind: kind, Window: window,
		ForceMisspecEpoch: req.Misspec,
		Trace:             inv.rec,
		SpanParent:        esp.ID(),
		OnDecision: func(d adaptive.Decision) {
			e := obs.DecisionFromAudit(inv.id, d)
			s.decisions.Append(e)
			inv.decisions = append(inv.decisions, e)
		},
	})
	esp.End()
	resp.AnalysisSpans = st.total()
	engine := res.Engine
	if rerr != nil {
		// Construction failures (e.g. no DOMORE view for this region shape)
		// and execution faults are properties of the program, not the
		// daemon: 422, like a compile error. A failed supplier names itself,
		// and so does a DOMORE plan the engine needed and the region lacks.
		if stage == "" && (engine == "domore" || engine == "adaptive") {
			if _, perr := c.PlanDOMORE(region); perr != nil {
				stage = "domore plan"
			}
		}
		if stage == "" {
			stage = engine
		}
		return fail(422, "%s: %v", stage, rerr)
	}
	sum := res.Env.Checksum()
	if sum != oracle {
		return fail(500, "%s checksum %x != sequential oracle %x", engine, sum, oracle)
	}

	if st.oracle > 0 || st.profile > 0 {
		s.putPlan(p, rp, key, kind, regionIdx, workers, req.Window)
	}

	resp.OK = true
	resp.Engine = engine
	resp.Checksum = sum
	resp.SeqChecksum = oracle
	resp.Cache = cacheLabel(st, diskHit)
	s.countCache(resp.Cache)
	resp.DurationNs = time.Since(start).Nanoseconds()
	return resp, 200
}

// cacheLabel classifies the dispatch path this request took. The region
// plans hold live IR pointers and are rebuilt per process, so a warm
// (post-restart) invocation re-plans; what warm never repeats is the oracle
// run and the profiling pass.
func cacheLabel(st *spans, diskHit bool) string {
	switch {
	case st.compile == 0 && st.oracle == 0 && st.profile == 0 && st.plan == 0:
		return "hot"
	case diskHit && st.oracle == 0 && st.profile == 0:
		return "warm"
	default:
		return "cold"
	}
}

// bump the cache-path counters once classified.
func (s *Server) countCache(label string) {
	switch label {
	case "hot":
		s.cacheHot.Add(1)
	case "warm":
		s.cacheWarm.Add(1)
	default:
		s.cacheCold.Add(1)
	}
}
