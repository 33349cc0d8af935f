package daemon

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"crossinv/internal/core"
	"crossinv/internal/obs"
	"crossinv/internal/runtime/trace"
)

// flightProg is a small lint-clean program (the CG nest of the examples
// corpus, so its plan is adopted back from disk) whose constant k makes its
// content hash, and its result, unique.
func flightProg(k int) string {
	return fmt.Sprintf(`func cg() {
  var S[40], C[120], IDX[400]
  parfor p = 0 .. 40 { S[p] = p * 9 %% 300 }
  parfor z = 0 .. 400 { IDX[z] = z * 17 %% 120 }
  for i = 0 .. 40 {
    start = S[i] %% 391
    end = start + 9
    parfor j = start .. end {
      C[IDX[j]] = C[IDX[j]] * 3 + j + %d
    }
  }
}
`, k)
}

// waitFor polls cond (a counter the daemon moves from another goroutine)
// until it holds; the deadline only bounds a broken build.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdSlots takes every execution slot, as running engines would, and
// returns the function that frees them again.
func holdSlots(s *Server) (release func()) {
	for i := 0; i < cap(s.inflight); i++ {
		s.inflight <- struct{}{}
	}
	return func() {
		for i := 0; i < cap(s.inflight); i++ {
			<-s.inflight
		}
	}
}

// executeSpans counts execute spans over every invocation the flight
// recorder's window retains.
func executeSpans(t *testing.T, s *Server) (n int) {
	t.Helper()
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flightrec", nil))
	var doc struct {
		Window []obs.FlightInvocation `json:"window"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, fi := range doc.Window {
		for _, sp := range fi.Spans {
			if sp.Kind == trace.SpanExecute.String() {
				n++
			}
		}
	}
	return n
}

func executed(resp *RunResponse) bool { return !resp.Memo && !resp.Coalesced }

// TestConcurrentIdenticalRequestsCoalesce: a thundering herd of one
// never-seen request runs the whole pipeline once. The leader is parked in
// the admission queue (every slot held) until all followers have attached,
// so none of them can arrive late and be a plain memo hit instead.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	s := newServer(t, Config{MaxInFlight: 1, QueueTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := holdSlots(s)

	const n = 16
	req := RunRequest{Source: flightProg(1), Mode: "auto", Workers: 2}
	resps := make([]*RunResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var status int
			r := req
			if resps[i], status = postRun(t, ts.URL, &r); status != 200 {
				t.Errorf("request %d: %d %s", i, status, resps[i].Error)
			}
		}(i)
	}
	waitFor(t, "followers to attach", func() bool { return s.Counters()["daemon.result.coalesced"] == n-1 })
	release()
	wg.Wait()

	c := s.Counters()
	want := mustSeq(t, s, req.Source)
	ids, leaders, coalesced := map[string]bool{}, map[string]bool{}, 0
	var leader string
	for _, r := range resps {
		ids[r.Invocation] = true
		if r.Checksum != want || !r.OK {
			t.Errorf("%s: checksum %x ok %v, want %x", r.Invocation, r.Checksum, r.OK, want)
		}
		if r.Coalesced {
			coalesced++
			leaders[r.Leader] = true
			if r.Cache != "hot" || r.AnalysisSpans != 0 || r.Memo {
				t.Errorf("follower %s: cache %q spans %d memo %v, want hot/0/false", r.Invocation, r.Cache, r.AnalysisSpans, r.Memo)
			}
		} else {
			leader = r.Invocation
			if r.Cache != "cold" || r.Leader != "" || r.Memo {
				t.Errorf("leader %s: cache %q leader %q memo %v", r.Invocation, r.Cache, r.Leader, r.Memo)
			}
		}
	}
	if len(ids) != n || coalesced != n-1 || len(leaders) != 1 || !leaders[leader] {
		t.Errorf("%d distinct ids, %d coalesced, leaders %v, executing invocation %q; want %d ids, %d coalesced, one leader",
			len(ids), coalesced, leaders, leader, n, n-1)
	}
	for _, k := range []string{"daemon.span.compile", "daemon.span.oracle", "daemon.span.profile", "daemon.result.miss", "daemon.admitted", "daemon.completed"} {
		if c[k] != 1 {
			t.Errorf("%s = %d, want 1 for the whole herd", k, c[k])
		}
	}
	if got := executeSpans(t, s); got != 1 {
		t.Errorf("execute spans across the herd = %d, want 1", got)
	}
}

// TestRepeatServedFromMemory: the second identical request is answered
// without any engine — a root span and a cache.lookup span, nothing else.
func TestRepeatServedFromMemory(t *testing.T) {
	s := newServer(t, Config{})
	req := &RunRequest{Source: flightProg(2), Mode: "speccross", Workers: 2}
	first, status := s.Execute(req)
	if status != 200 || !executed(first) {
		t.Fatalf("first run: %d %+v", status, first)
	}
	second, status, events := s.ExecuteTraced(req)
	if status != 200 || !second.Memo || second.Coalesced || second.Leader != first.Invocation {
		t.Fatalf("second run: %d %+v, want memo naming %s", status, second, first.Invocation)
	}
	if second.Invocation == first.Invocation || second.Checksum != first.Checksum || second.SeqChecksum != first.Checksum ||
		second.Engine != first.Engine || second.Regions != first.Regions || second.Cache != "hot" || second.AnalysisSpans != 0 {
		t.Errorf("served response %+v diverges from the execution %+v", second, first)
	}
	kinds := map[string]int{}
	for _, sp := range trace.SpansFromEvents(events) {
		kinds[sp.Kind]++
	}
	if len(kinds) != 2 || kinds["invocation"] != 1 || kinds["cache.lookup"] != 1 {
		t.Errorf("served request's spans = %v, want one invocation and one cache.lookup", kinds)
	}
	for _, ev := range events {
		if ev.Kind != trace.KindSpanBegin && ev.Kind != trace.KindSpanEnd {
			t.Fatalf("served request recorded engine event %v", ev.Kind)
		}
	}
	c := s.Counters()
	if c["daemon.result.hit"] != 1 || c["daemon.result.miss"] != 1 || c["daemon.result.entries"] != 1 {
		t.Errorf("result counters hit/miss/entries = %d/%d/%d, want 1/1/1",
			c["daemon.result.hit"], c["daemon.result.miss"], c["daemon.result.entries"])
	}
	for _, info := range s.programInfos() {
		if info.Runs != 2 {
			t.Errorf("/plans run count = %d, want 2 (served requests included)", info.Runs)
		}
	}
}

// TestDifferingRequestsExecute: every field that reaches the engines is in
// the key, and the two bypass knobs always run.
func TestDifferingRequestsExecute(t *testing.T) {
	s := newServer(t, Config{})
	base := RunRequest{Source: flightProg(3), Mode: "adaptive", Workers: 2, Window: 8}
	if resp, status := s.Execute(&base); status != 200 || !executed(resp) {
		t.Fatalf("base run: %d %+v", status, resp)
	}
	variants := map[string]func(*RunRequest){
		"workers": func(r *RunRequest) { r.Workers = 3 },
		"sig":     func(r *RunRequest) { r.Sig = "bloom" },
		"window":  func(r *RunRequest) { r.Window = 16 },
		"region":  func(r *RunRequest) { r.Region = -1 },
		"mode":    func(r *RunRequest) { r.Mode = "speccross" },
		"misspec": func(r *RunRequest) { r.Misspec = 4 },
		"fresh":   func(r *RunRequest) { r.Fresh = true },
	}
	for name, mutate := range variants {
		req := base
		mutate(&req)
		before := s.Counters()["daemon.result.miss"]
		resp, status := s.Execute(&req)
		if status != 200 || !executed(resp) || resp.Leader != "" {
			t.Errorf("%s variant: %d %+v, want a real execution", name, status, resp)
		}
		wantMiss := int64(1)
		if name == "misspec" || name == "fresh" {
			wantMiss = 0 // bypass: the table is never consulted
		}
		if got := s.Counters()["daemon.result.miss"] - before; got != wantMiss {
			t.Errorf("%s variant moved result.miss by %d, want %d", name, got, wantMiss)
		}
	}
	// The base key is still settled, and names the fresh run as its proof.
	resp, _ := s.Execute(&base)
	if !resp.Memo {
		t.Errorf("base request after the variants: %+v, want memo", resp)
	}
	if hits := s.Counters()["daemon.result.hit"]; hits != 1 {
		t.Errorf("result.hit = %d, want 1", hits)
	}
}

// TestFailuresAreNotRetained: a 422 and a 500 reach their callers and are
// then forgotten; the same request executes again.
func TestFailuresAreNotRetained(t *testing.T) {
	s := newServer(t, Config{})
	noRegion := &RunRequest{Source: "func f() { var A[4]\nfor i = 0 .. 4 { A[i] = i } }", Mode: "domore"}
	for i := 0; i < 2; i++ {
		if resp, status := s.Execute(noRegion); status != 422 || !executed(resp) {
			t.Fatalf("no-region run %d: %d %+v, want an executed 422", i, status, resp)
		}
	}

	// Force a verification failure: poison the oracle the engine's checksum
	// is compared against, then heal it.
	src := flightProg(4)
	if resp, status := s.Execute(&RunRequest{Source: src, Mode: "seq"}); status != 200 {
		t.Fatalf("seq: %d %s", status, resp.Error)
	}
	p := s.program(core.SourceHash(src))
	flip := func() {
		p.mu.Lock()
		p.oracle ^= 1
		p.mu.Unlock()
	}
	req := &RunRequest{Source: src, Mode: "domore", Workers: 2}
	flip()
	if resp, status := s.Execute(req); status != 500 || resp.OK {
		t.Fatalf("poisoned run: %d %+v, want 500", status, resp)
	}
	flip()
	if resp, status := s.Execute(req); status != 200 || !executed(resp) {
		t.Fatalf("healed run: %d %+v, want an executed 200 (the 500 must not be retained)", status, resp)
	}
	c := s.Counters()
	if c["daemon.result.entries"] != 2 || c["daemon.result.hit"] != 0 {
		t.Errorf("entries %d hits %d, want 2 (seq, healed domore) and 0", c["daemon.result.entries"], c["daemon.result.hit"])
	}
}

// TestFollowersShareLeaderFailure: followers of a flight that ends in an
// error get that error and status, under their own invocation ids.
func TestFollowersShareLeaderFailure(t *testing.T) {
	s := newServer(t, Config{MaxInFlight: 1, QueueTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := holdSlots(s)

	const n = 4
	req := RunRequest{Source: "func f( {", Mode: "seq"}
	resps := make([]*RunResponse, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := req
			resps[i], statuses[i] = postRun(t, ts.URL, &r)
		}(i)
	}
	waitFor(t, "followers to attach", func() bool { return s.Counters()["daemon.result.coalesced"] == n-1 })
	release()
	wg.Wait()
	ids := map[string]bool{}
	for i, r := range resps {
		ids[r.Invocation] = true
		if statuses[i] != 422 || r.OK || r.Error == "" || r.Memo {
			t.Errorf("request %d: %d %+v, want the leader's 422", i, statuses[i], r)
		}
	}
	if len(ids) != n {
		t.Errorf("%d distinct invocation ids, want %d", len(ids), n)
	}
	if c := s.Counters(); c["daemon.span.compile"] != 1 || c["daemon.result.entries"] != 0 {
		t.Errorf("compile spans %d, entries %d; want 1 and 0", c["daemon.span.compile"], c["daemon.result.entries"])
	}
}

// TestEvictionReexecutesAndProgramsComeBackWarm: both bounded maps evict
// least-recently-used first; an evicted result executes again, and an
// evicted program recompiles but replays oracle and profile from disk.
func TestEvictionReexecutesAndProgramsComeBackWarm(t *testing.T) {
	s := newServer(t, Config{ResultCacheEntries: 2})
	run := func(k int) *RunResponse {
		t.Helper()
		resp, status := s.Execute(&RunRequest{Source: flightProg(k), Mode: "auto", Workers: 2})
		if status != 200 {
			t.Fatalf("program %d: %d %s", k, status, resp.Error)
		}
		return resp
	}
	for k := 10; k < 13; k++ {
		if resp := run(k); resp.Cache != "cold" {
			t.Fatalf("program %d first run classified %q", k, resp.Cache)
		}
	}
	c := s.Counters()
	if c["daemon.result.entries"] != 2 || c["daemon.result.evicted"] != 1 || c["daemon.programs"] != 2 {
		t.Fatalf("entries %d evicted %d programs %d, want 2/1/2",
			c["daemon.result.entries"], c["daemon.result.evicted"], c["daemon.programs"])
	}
	if resp := run(12); !resp.Memo {
		t.Errorf("most recent program not served from memory: %+v", resp)
	}
	before := s.Counters()
	resp := run(10)
	if !executed(resp) || resp.Cache != "warm" {
		t.Errorf("evicted program came back %+v, want an execution classified warm", resp)
	}
	after := s.Counters()
	if after["daemon.span.compile"]-before["daemon.span.compile"] != 1 ||
		after["daemon.span.oracle"] != before["daemon.span.oracle"] ||
		after["daemon.span.profile"] != before["daemon.span.profile"] {
		t.Errorf("evicted program's return: compile %d→%d oracle %d→%d profile %d→%d, want one compile and nothing else",
			before["daemon.span.compile"], after["daemon.span.compile"], before["daemon.span.oracle"], after["daemon.span.oracle"],
			before["daemon.span.profile"], after["daemon.span.profile"])
	}
}

// TestHitsBypassAdmission: with every slot held and the wait queue full a
// request that needs an engine is shed, and one the table holds is served.
func TestHitsBypassAdmission(t *testing.T) {
	s := newServer(t, Config{MaxInFlight: 2, QueueDepth: 2, QueueTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := RunRequest{Source: flightProg(5), Mode: "domore", Workers: 2}
	if resp, status := postRun(t, ts.URL, &req); status != 200 {
		t.Fatalf("first run: %d %s", status, resp.Error)
	}

	release := holdSlots(s)
	fresh := req
	fresh.Fresh = true
	var queued sync.WaitGroup
	for i := 0; i < 2; i++ {
		queued.Add(1)
		go func() {
			defer queued.Done()
			r := fresh
			if resp, status := postRun(t, ts.URL, &r); status != 200 {
				t.Errorf("queued request: %d %s", status, resp.Error)
			}
		}()
	}
	waitFor(t, "the admission queue to fill", func() bool { return s.waiting.Load() == 2 })

	r := fresh
	if resp, status := postRun(t, ts.URL, &r); status != 429 {
		t.Errorf("engine request at a full queue: %d %+v, want 429", status, resp)
	}
	for i := 0; i < 4; i++ {
		r := req
		if resp, status := postRun(t, ts.URL, &r); status != 200 || !resp.Memo {
			t.Errorf("hit at a full queue: %d %+v, want a served 200", status, resp)
		}
	}
	release()
	queued.Wait()
	c := s.Counters()
	if c["daemon.admitted"] != 3 || c["daemon.completed"] != 3 || c["daemon.result.hit"] != 4 || c["daemon.rejected.queue_full"] != 1 {
		t.Errorf("admitted %d completed %d hits %d shed %d, want 3/3/4/1",
			c["daemon.admitted"], c["daemon.completed"], c["daemon.result.hit"], c["daemon.rejected.queue_full"])
	}
}

// TestFollowersFinishDuringShutdown: a drain that begins while a leader is
// executing waits for it and for everyone attached to it.
func TestFollowersFinishDuringShutdown(t *testing.T) {
	s := newServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	src := flightProg(6)

	// Park the leader inside execute: it needs the program's lock to compile.
	p := s.program(core.SourceHash(src))
	p.mu.Lock()
	const n = 6
	statuses := make([]int, n)
	resps := make([]*RunResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], statuses[i] = postRun(t, ts.URL, &RunRequest{Source: src, Mode: "domore", Workers: 2})
		}(i)
	}
	waitFor(t, "followers to attach", func() bool { return s.Counters()["daemon.result.coalesced"] == n-1 })
	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown() }()
	waitFor(t, "the drain to begin", s.Draining)
	select {
	case <-drained:
		t.Fatal("Shutdown returned with a leader and its followers still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	p.mu.Unlock()
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	for i := range resps {
		if statuses[i] != 200 || !resps[i].OK {
			t.Errorf("request %d during drain: %d %+v, want 200", i, statuses[i], resps[i])
		}
	}
	if c := s.Counters(); c["daemon.admitted"] != 1 || c["daemon.completed"] != 1 {
		t.Errorf("admitted %d completed %d, want 1/1", c["daemon.admitted"], c["daemon.completed"])
	}
}

// TestServersShareNothing: the table is per Server. A second server in the
// same process, even over the same cache directory, executes and verifies
// for itself (warm: the disk cache is the only thing the two share).
func TestServersShareNothing(t *testing.T) {
	dir := t.TempDir()
	req := &RunRequest{Source: flightProg(7), Mode: "auto", Workers: 2}
	a := newServer(t, Config{CacheDir: dir})
	for i := 0; i < 2; i++ {
		if resp, status := a.Execute(req); status != 200 {
			t.Fatalf("server a: %d %s", status, resp.Error)
		}
	}
	b := newServer(t, Config{CacheDir: dir})
	resp, status := b.Execute(req)
	if status != 200 || !executed(resp) || resp.Cache != "warm" {
		t.Errorf("server b's first run: %d %+v, want an execution classified warm", status, resp)
	}
	ca, cb := a.Counters(), b.Counters()
	if ca["daemon.result.hit"] != 1 || cb["daemon.result.hit"] != 0 || cb["daemon.result.miss"] != 1 {
		t.Errorf("hits a/b %d/%d, b misses %d; want 1/0 and 1", ca["daemon.result.hit"], cb["daemon.result.hit"], cb["daemon.result.miss"])
	}
}

// TestResultCacheDisabled: a negative bound turns serving and coalescing off.
func TestResultCacheDisabled(t *testing.T) {
	s := newServer(t, Config{ResultCacheEntries: -1})
	req := &RunRequest{Source: flightProg(8), Mode: "domore", Workers: 2}
	for i := 0; i < 2; i++ {
		if resp, status := s.Execute(req); status != 200 || !executed(resp) {
			t.Fatalf("run %d: %d %+v, want an execution", i, status, resp)
		}
	}
	if _, ok := s.Counters()["daemon.result.hit"]; ok {
		t.Error("disabled result cache still exports its counters")
	}
}

// TestFlightTableHammer mixes hits, misses, followers, fresh runs and
// evictions from many goroutines: every answer must be the program's
// sequential checksum, and the books must balance.
func TestFlightTableHammer(t *testing.T) {
	const (
		progs      = 6
		goroutines = 8
		each       = 40
		bound      = 4
	)
	s := newServer(t, Config{ResultCacheEntries: bound})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	want := make([]uint64, progs)
	ref := newServer(t, Config{})
	for k := range want {
		want[k] = mustSeq(t, ref, flightProg(100+k))
	}
	modes := []string{"auto", "domore", "speccross"}
	var fresh, served int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < each; i++ {
				k := rng.Intn(progs)
				req := &RunRequest{Source: flightProg(100 + k), Mode: modes[rng.Intn(len(modes))], Workers: 2, Fresh: rng.Intn(8) == 0}
				var resp *RunResponse
				var status int
				if i%2 == 0 {
					resp, status = postRun(t, ts.URL, req)
				} else {
					resp, status = s.Execute(req)
				}
				if status != 200 || resp.Checksum != want[k] {
					t.Errorf("program %d mode %s: %d checksum %x, want %x (%s)", k, req.Mode, status, resp.Checksum, want[k], resp.Error)
				}
				if req.Fresh && !executed(resp) {
					t.Errorf("fresh request was served: %+v", resp)
				}
				mu.Lock()
				if req.Fresh {
					fresh++
				}
				if !executed(resp) {
					served++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	c := s.Counters()
	total := int64(goroutines * each)
	if got := c["daemon.result.hit"] + c["daemon.result.miss"] + c["daemon.result.coalesced"] + fresh; got != total {
		t.Errorf("hit %d + miss %d + coalesced %d + fresh %d = %d, want %d requests",
			c["daemon.result.hit"], c["daemon.result.miss"], c["daemon.result.coalesced"], fresh, got, total)
	}
	if c["daemon.result.hit"]+c["daemon.result.coalesced"] != served {
		t.Errorf("hit %d + coalesced %d != %d served responses", c["daemon.result.hit"], c["daemon.result.coalesced"], served)
	}
	if c["daemon.result.entries"] > bound || c["daemon.programs"] > bound || c["daemon.result.evicted"] == 0 {
		t.Errorf("entries %d programs %d evicted %d under a bound of %d", c["daemon.result.entries"], c["daemon.programs"], c["daemon.result.evicted"], bound)
	}
	if c["daemon.admitted"] != c["daemon.completed"] {
		t.Errorf("admitted %d != completed %d", c["daemon.admitted"], c["daemon.completed"])
	}
	if got, err := http.Get(ts.URL + "/healthz"); err != nil || got.StatusCode != 200 {
		t.Errorf("healthz after the hammer: %v %v", err, got)
	} else {
		got.Body.Close()
	}
}
