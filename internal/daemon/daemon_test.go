package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossinv/internal/core"
	"crossinv/internal/plancache"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/signature"
)

// corpus loads every LNL program the repo ships: the examples plus the
// core test corpus.
func corpus(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, dir := range []string{"../../examples/compiler", "../../internal/core/testdata"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".lnl" {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(raw)
		}
	}
	if len(out) < 4 {
		t.Fatalf("corpus too small: %d programs", len(out))
	}
	return out
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown() })
	return s
}

// allModes runs on every corpus program, including under -race: the §4.4
// profiling pass is windowed to the checkpoint period and distance-pruned
// (speccross.DefaultProfileWindow), so no corpus program's cold profile is
// quadratic anymore — the old profileHeavy carve-out for stencil.lnl is
// retired.
var allModes = []string{"barrier", "domore", "domore-sharded", "speccross", "adaptive", "auto"}

// TestModesMatchSequentialOverCorpus is the daemon-level equivalence
// gate: every engine, on every corpus program, either matches the
// sequential oracle exactly or declines cleanly (422 — the program cannot
// be parallelized that way). A 500 is an engine or verification failure.
func TestModesMatchSequentialOverCorpus(t *testing.T) {
	s := newServer(t, Config{})
	for name, src := range corpus(t) {
		t.Run(name, func(t *testing.T) {
			seq, status := s.Execute(&RunRequest{Source: src, Mode: "seq"})
			if status != 200 {
				t.Fatalf("seq: %d %s", status, seq.Error)
			}
			for _, mode := range allModes {
				resp, status := s.Execute(&RunRequest{Source: src, Mode: mode, Workers: 4})
				switch status {
				case 200:
					if resp.Checksum != seq.Checksum {
						t.Errorf("%s checksum %x != seq %x", mode, resp.Checksum, seq.Checksum)
					}
				case 422:
					t.Logf("%s declined: %s", mode, resp.Error)
				default:
					t.Errorf("%s: status %d: %s", mode, status, resp.Error)
				}
			}
		})
	}
}

// TestHotPathZeroAnalysisSpans pins the acceptance criterion: once a
// program is live in memory, repeat invocations run zero analysis stages
// — no parse, no dependence analysis, no oracle, no profile, no
// transform. The global span counters must not move either.
func TestHotPathZeroAnalysisSpans(t *testing.T) {
	src := corpus(t)["cg.lnl"]
	s := newServer(t, Config{})
	for _, mode := range []string{"seq", "barrier", "domore", "speccross", "adaptive", "auto"} {
		if resp, status := s.Execute(&RunRequest{Source: src, Mode: mode, Workers: 4}); status != 200 {
			t.Fatalf("cold %s: %d %s", mode, status, resp.Error)
		}
	}
	before := s.Counters()
	for _, mode := range []string{"seq", "barrier", "domore", "speccross", "adaptive", "auto"} {
		resp, status := s.Execute(&RunRequest{Source: src, Mode: mode, Workers: 4})
		if status != 200 {
			t.Fatalf("hot %s: %d %s", mode, status, resp.Error)
		}
		if resp.Cache != "hot" {
			t.Errorf("%s repeat classified %q, want hot", mode, resp.Cache)
		}
		if resp.AnalysisSpans != 0 {
			t.Errorf("%s hot invocation ran %d analysis spans, want 0", mode, resp.AnalysisSpans)
		}
	}
	after := s.Counters()
	for _, k := range []string{"daemon.span.compile", "daemon.span.oracle", "daemon.span.profile", "daemon.span.plan"} {
		if after[k] != before[k] {
			t.Errorf("%s moved %d -> %d across a hot round", k, before[k], after[k])
		}
	}
	if after["daemon.cache.hot"]-before["daemon.cache.hot"] != 6 {
		t.Errorf("hot counter advanced %d, want 6", after["daemon.cache.hot"]-before["daemon.cache.hot"])
	}
}

// TestWarmRestartSkipsOracleAndProfile: a fresh daemon over the same
// cache dir must re-compile (the IR is live state) but replay the oracle
// checksum and §4.4 profile from disk — and produce identical results.
func TestWarmRestartSkipsOracleAndProfile(t *testing.T) {
	dir := t.TempDir()
	progs := corpus(t)

	cold := newServer(t, Config{CacheDir: dir})
	want := map[string]uint64{}
	for name, src := range progs {
		resp, status := cold.Execute(&RunRequest{Source: src, Mode: "speccross", Workers: 4})
		if status == 200 {
			want[name] = resp.Checksum
			if resp.Cache != "cold" {
				t.Errorf("%s first run classified %q, want cold", name, resp.Cache)
			}
		} else if status != 422 {
			t.Fatalf("%s cold: %d %s", name, status, resp.Error)
		}
	}
	if len(want) == 0 {
		t.Fatal("no corpus program ran under speccross")
	}
	if err := cold.Shutdown(); err != nil {
		t.Fatal(err)
	}

	warm := newServer(t, Config{CacheDir: dir})
	for name := range want {
		resp, status := warm.Execute(&RunRequest{Source: progs[name], Mode: "speccross", Workers: 4})
		if status != 200 {
			t.Fatalf("%s warm: %d %s", name, status, resp.Error)
		}
		if resp.Checksum != want[name] {
			t.Errorf("%s warm checksum %x != cold %x", name, resp.Checksum, want[name])
		}
		if resp.Cache != "warm" {
			t.Errorf("%s restart run classified %q, want warm", name, resp.Cache)
		}
	}
	c := warm.Counters()
	if c["daemon.span.oracle"] != 0 || c["daemon.span.profile"] != 0 {
		t.Errorf("warm restart ran %d oracle / %d profile spans, want 0/0",
			c["daemon.span.oracle"], c["daemon.span.profile"])
	}
	if c["plancache.hit"] == 0 {
		t.Error("warm restart recorded no plan-cache hits")
	}
}

// TestCorruptCacheEntryRecovers: a rotted disk entry must degrade the
// request to a cold recompute (never an error) and be repaired in place.
func TestCorruptCacheEntryRecovers(t *testing.T) {
	dir := t.TempDir()
	src := corpus(t)["cg.lnl"]

	cold := newServer(t, Config{CacheDir: dir})
	first, status := cold.Execute(&RunRequest{Source: src, Mode: "speccross", Workers: 4})
	if status != 200 {
		t.Fatalf("cold: %d %s", status, first.Error)
	}
	if err := cold.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Tear every cached entry under the root.
	torn := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" || d.Name() == "stats.json" {
			return err
		}
		torn++
		return os.WriteFile(path, []byte(`{"schema":"crossinv-plancache/v1","plan":`), 0o644)
	})
	if err != nil || torn == 0 {
		t.Fatalf("tore %d entries, err %v", torn, err)
	}

	s := newServer(t, Config{CacheDir: dir})
	resp, status := s.Execute(&RunRequest{Source: src, Mode: "speccross", Workers: 4})
	if status != 200 {
		t.Fatalf("run over corrupt cache: %d %s", status, resp.Error)
	}
	if resp.Checksum != first.Checksum {
		t.Errorf("recovered checksum %x != original %x", resp.Checksum, first.Checksum)
	}
	if resp.Cache != "cold" {
		t.Errorf("corrupt entry classified %q, want cold recompute", resp.Cache)
	}
	if c := s.Counters(); c["plancache.corrupt"] == 0 {
		t.Error("plancache.corrupt did not count the torn entry")
	}
	// The cold run re-Put the entry: one more restart must be warm again.
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	again := newServer(t, Config{CacheDir: dir})
	if resp, status := again.Execute(&RunRequest{Source: src, Mode: "speccross", Workers: 4}); status != 200 || resp.Cache != "warm" {
		t.Errorf("post-repair restart: status %d cache %q, want 200/warm", status, resp.Cache)
	}
}

func postRun(t *testing.T, url string, req *RunRequest) (*RunResponse, int) {
	t.Helper()
	raw, _ := json.Marshal(req)
	httpResp, err := http.Post(url+"/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer httpResp.Body.Close()
	var resp RunResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode /run response: %v", err)
	}
	return &resp, httpResp.StatusCode
}

// TestConcurrentInvocationsWithAdmissionControl fires 64 concurrent
// invocations at a deliberately small worker budget: every response must
// be a verified 200 or an admission 429, at least one of each must occur
// (the budget saturates AND still serves), and afterwards the daemon is
// healthy with zero in-flight work.
func TestConcurrentInvocationsWithAdmissionControl(t *testing.T) {
	// Each request must hold its slot long enough for the storm to queue
	// behind it: heavy's region runs for milliseconds, where cg.lnl's runs
	// wholly inline in well under one.
	src := heavy
	s := newServer(t, Config{MaxInFlight: 2, QueueDepth: 2, QueueTimeout: 20 * time.Millisecond})
	// Pre-warm so concurrent requests exercise the hot path, not 64
	// simultaneous compiles of the same program.
	if resp, status := s.Execute(&RunRequest{Source: src, Mode: "domore", Workers: 2}); status != 200 {
		t.Fatalf("pre-warm: %d %s", status, resp.Error)
	}
	want := mustSeq(t, s, src)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 64
	var ok, rejected, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Fresh: the storm is there to contend for execution slots, which
			// requests answered from the flight table never take.
			resp, status := postRun(t, ts.URL, &RunRequest{Source: src, Mode: "domore", Workers: 2, Fresh: true})
			switch status {
			case 200:
				if resp.Checksum != want {
					t.Errorf("concurrent run checksum %x != %x", resp.Checksum, want)
				}
				ok.Add(1)
			case 429:
				rejected.Add(1)
			default:
				other.Add(1)
				t.Errorf("unexpected status %d: %s", status, resp.Error)
			}
		}()
	}
	wg.Wait()

	if ok.Load() == 0 {
		t.Error("no concurrent invocation succeeded")
	}
	if rejected.Load() == 0 {
		t.Error("admission control never engaged: 64 concurrent requests, budget 2+2, zero 429s")
	}
	if got := ok.Load() + rejected.Load() + other.Load(); got != n {
		t.Errorf("accounted for %d of %d requests", got, n)
	}
	c := s.Counters()
	if c["daemon.admitted"] != c["daemon.completed"] {
		t.Errorf("admitted %d != completed %d (dropped work?)", c["daemon.admitted"], c["daemon.completed"])
	}

	httpResp, err := http.Get(ts.URL + "/healthz")
	if err != nil || httpResp.StatusCode != 200 {
		t.Fatalf("healthz after storm: %v %v", err, httpResp)
	}
	httpResp.Body.Close()
}

func mustSeq(t *testing.T, s *Server, src string) uint64 {
	t.Helper()
	resp, status := s.Execute(&RunRequest{Source: src, Mode: "seq"})
	if status != 200 {
		t.Fatalf("seq: %d %s", status, resp.Error)
	}
	return resp.Checksum
}

// TestGracefulDrain starts a request storm, begins Shutdown mid-storm,
// and asserts the drain contract: every admitted invocation completes
// with a verified result (zero dropped), late arrivals get 503, and
// after Shutdown returns the daemon reports draining on /healthz.
func TestGracefulDrain(t *testing.T) {
	src := corpus(t)["cg.lnl"]
	s := newServer(t, Config{MaxInFlight: 2, QueueDepth: 2, QueueTimeout: 50 * time.Millisecond})
	if resp, status := s.Execute(&RunRequest{Source: src, Mode: "domore", Workers: 2}); status != 200 {
		t.Fatalf("pre-warm: %d %s", status, resp.Error)
	}
	want := mustSeq(t, s, src)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 32
	var ok, rejected, unavailable atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Fresh: the drain contract is about invocations holding slots.
			resp, status := postRun(t, ts.URL, &RunRequest{Source: src, Mode: "domore", Workers: 2, Fresh: true})
			switch status {
			case 200:
				if resp.Checksum != want {
					t.Errorf("drained run checksum %x != %x", resp.Checksum, want)
				}
				ok.Add(1)
			case 429:
				rejected.Add(1)
			case 503:
				unavailable.Add(1)
			default:
				t.Errorf("unexpected status %d: %s", status, resp.Error)
			}
		}(i)
	}

	var shutdownDone sync.WaitGroup
	shutdownDone.Add(1)
	go func() {
		defer shutdownDone.Done()
		time.Sleep(5 * time.Millisecond) // let some requests get admitted
		if err := s.Shutdown(); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()
	wg.Wait()
	shutdownDone.Wait()

	c := s.Counters()
	if c["daemon.admitted"] != c["daemon.completed"] {
		t.Errorf("drain dropped accepted work: admitted %d, completed %d",
			c["daemon.admitted"], c["daemon.completed"])
	}
	if got := ok.Load() + rejected.Load() + unavailable.Load(); got != n {
		t.Errorf("accounted for %d of %d requests", got, n)
	}
	if int64(c["daemon.completed"]) < ok.Load() {
		t.Errorf("completed %d < observed 200s %d", c["daemon.completed"], ok.Load())
	}

	httpResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain = %d, want 503", httpResp.StatusCode)
	}
	if resp, status := postRun(t, ts.URL, &RunRequest{Source: src, Mode: "seq"}); status != 503 {
		t.Errorf("post-drain /run = %d (%s), want 503", status, resp.Error)
	}

	// The drain flushed cache stats to disk.
	if _, err := os.Stat(filepath.Join(s.Store().Dir(), "stats.json")); err != nil {
		t.Errorf("drain did not flush cache stats: %v", err)
	}
}

// TestDrainKeepsListenerUntilDrained: Serve releases the listener only
// when the drain is complete, so a request that arrives while an admitted
// invocation still runs — on a new connection or an idle keep-alive one —
// is answered 503, not refused or reset.
func TestDrainKeepsListenerUntilDrained(t *testing.T) {
	s := newServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	do := func(method, path string, req *RunRequest) (int, error) {
		raw, _ := json.Marshal(req)
		hr, err := http.NewRequest(method, url+path, bytes.NewReader(raw))
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(hr)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}

	// Park the leader inside execute: it needs the program's lock.
	src := flightProg(8)
	p := s.program(core.SourceHash(src))
	p.mu.Lock()
	unlock := sync.OnceFunc(p.mu.Unlock)
	defer unlock()
	leader := make(chan int, 1)
	go func() {
		status, err := do(http.MethodPost, "/run", &RunRequest{Source: src, Mode: "domore", Workers: 2})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		leader <- status
	}()
	waitFor(t, "the leader to be admitted", func() bool { return s.Counters()["daemon.admitted"] == 1 })
	// Leave an idle keep-alive connection in the client's pool.
	if status, err := do(http.MethodGet, "/healthz", nil); err != nil || status != 200 {
		t.Fatalf("healthz before drain: %d, %v", status, err)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown() }()
	waitFor(t, "the drain to begin", s.Draining)
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
		status, err := do(http.MethodPost, "/run", &RunRequest{Source: flightProg(9), Mode: "seq"})
		if err != nil {
			t.Fatalf("POST /run during drain: %v, want 503", err)
		}
		if status != http.StatusServiceUnavailable {
			t.Fatalf("POST /run during drain = %d, want 503", status)
		}
	}

	unlock()
	if status := <-leader; status != 200 {
		t.Errorf("leader = %d, want 200", status)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestHTTPSurface smoke-tests the observability endpoints the daemon
// mounts next to /run: /plans lists entries and hot programs, /metrics
// exports the daemon counters, /healthz reports admission state.
func TestHTTPSurface(t *testing.T) {
	src := corpus(t)["cg.lnl"]
	s := newServer(t, Config{})
	if resp, status := s.Execute(&RunRequest{Source: src, Mode: "auto", Workers: 4}); status != 200 {
		t.Fatalf("seed run: %d %s", status, resp.Error)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var plans struct {
		Entries  []map[string]any `json:"entries"`
		Programs []programInfo    `json:"programs"`
		Counters map[string]int64 `json:"counters"`
	}
	httpResp, err := http.Get(ts.URL + "/plans")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&plans); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if len(plans.Entries) == 0 || len(plans.Programs) != 1 {
		t.Errorf("/plans: %d entries, %d programs; want ≥1 and 1", len(plans.Entries), len(plans.Programs))
	}
	if plans.Counters["plancache.put"] == 0 {
		t.Error("/plans counters missing plancache.put")
	}

	httpResp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(httpResp)
	for _, metric := range []string{"daemon_admitted", "daemon_cache_cold", "daemon_span_oracle", "plancache_put", "daemon_inflight"} {
		if !strings.Contains(raw, metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}

	httpResp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status   string `json:"status"`
		Programs int    `json:"programs"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if h.Status != "ok" || h.Programs != 1 {
		t.Errorf("healthz = %+v, want ok/1 program", h)
	}
}

func readAll(r *http.Response) (string, error) {
	defer r.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			if err.Error() == "EOF" {
				return sb.String(), nil
			}
			return sb.String(), err
		}
	}
}

// TestRejectionShapes covers the request-validation edges.
func TestRejectionShapes(t *testing.T) {
	s := newServer(t, Config{})
	cases := []struct {
		name   string
		req    RunRequest
		status int
	}{
		{"empty source", RunRequest{}, 400},
		{"bad mode", RunRequest{Source: "func f() { }", Mode: "warp"}, 400},
		{"bad sig", RunRequest{Source: "func f() { }", Mode: "seq", Sig: "md5"}, 400},
		{"parse error", RunRequest{Source: "func f( {", Mode: "seq"}, 422},
		{"no region", RunRequest{Source: "func f() { var A[4]\nfor i = 0 .. 4 { A[i] = i } }", Mode: "domore"}, 422},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, status := s.Execute(&tc.req)
			if status != tc.status {
				t.Errorf("status %d (%s), want %d", status, resp.Error, tc.status)
			}
			if resp.OK {
				t.Error("rejected request reported OK")
			}
		})
	}
}

// TestChangedSubscriptInvalidatesPlan pins the xdep axis of the plan-cache
// key: two programs identical in shape whose inner subscripts differ by
// one lag constant must produce different facts hashes, hence different
// fingerprints — a plan derived under one dependence verdict can never be
// replayed for the other. The daemon echoes the hash into the stored plan
// so adopt() can re-verify it on load.
func TestChangedSubscriptInvalidatesPlan(t *testing.T) {
	mk := func(lag int) string {
		return `func pipe() {
  var A[520]
  parfor s = 0 .. 520 {
    A[s] = s * 5 % 11
  }
  for t = 2 .. 64 {
    parfor i = 0 .. 8 {
      A[t*8 + i] = A[t*8 + i - ` + strconv.Itoa(lag) + `] * 3 + 1
    }
  }
}
`
	}
	ca, err := core.Compile(mk(8))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := core.Compile(mk(16))
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := ca.XDep().Hash(), cb.XDep().Hash()
	if ha == hb {
		t.Fatal("lag-8 and lag-16 subscripts share a facts hash")
	}
	fa := plancache.Fingerprint(core.PipelineVersion, 0, "range", ha)
	fb := plancache.Fingerprint(core.PipelineVersion, 0, "range", hb)
	if fa == fb {
		t.Fatal("different facts hashes produced the same fingerprint")
	}

	// Even for one source hash, the two fingerprints address different
	// cache slots: a plan stored under verdict A misses under verdict B.
	store, err := plancache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := core.SourceHash(mk(8))
	if err := store.Put(plancache.Key{SourceHash: src, Fingerprint: fa},
		plancache.Plan{SeqChecksum: 1, Regions: 1, XDepHash: ha}); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(plancache.Key{SourceHash: src, Fingerprint: fb}); ok {
		t.Error("plan stored under one dependence verdict was served for another")
	}

	// End to end: the daemon stores the facts hash with the plan it writes.
	s := newServer(t, Config{})
	resp, status := s.Execute(&RunRequest{Source: mk(8), Mode: "domore"})
	if status != 200 || !resp.OK {
		t.Fatalf("domore run failed: %d %+v", status, resp)
	}
	infos := s.store.List()
	if len(infos) == 0 {
		t.Fatal("daemon stored no plan")
	}
	if !strings.Contains(infos[0].Fingerprint, "xdep="+ha) {
		t.Errorf("stored fingerprint %q lacks the facts hash %s", infos[0].Fingerprint, ha)
	}
}

// TestAdaptiveSkipsProfileForProvenDOALL pins the SeedFromFacts fast path:
// a region the analyzer proves free of cross-invocation dependences runs
// adaptive without ever paying the §4.4 profiling pass — the static facts
// already license unbounded speculation.
func TestAdaptiveSkipsProfileForProvenDOALL(t *testing.T) {
	const doall = `func blocks() {
  var A[512]
  for t = 0 .. 64 {
    parfor i = 0 .. 8 {
      A[t*8 + i] = t + i
    }
  }
}
`
	s := newServer(t, Config{})
	resp, status := s.Execute(&RunRequest{Source: doall, Mode: "adaptive"})
	if status != 200 || !resp.OK {
		t.Fatalf("adaptive run failed: %d %+v", status, resp)
	}
	if n := s.spanProfile.Load(); n != 0 {
		t.Errorf("provably-DOALL region still ran %d profiling passes", n)
	}
}

// TestUnparallelizableRequestsNameTheirStage pins the 422 messages of
// requests the program cannot serve as asked: a failed DOMORE transform or
// §4.4 profile is named by its stage, and an engine that cannot run the
// region by the engine — auto's included, once its profile chose one.
func TestUnparallelizableRequestsNameTheirStage(t *testing.T) {
	// The sequential code between the parallel loops reads what they wrote,
	// so neither an epoch/task region nor a DOMORE worker partition exists.
	const seqRead = `func f() {
	var A[10]
	for t = 0 .. 3 {
		x = A[0]
		parfor i = 0 .. 10 { A[i] = A[i] + x }
	}
}
`
	// Task addresses depend on an index array a parallel loop writes: no
	// computeAddr slice, and no DOMORE view for the adaptive controller.
	const valueDependent = `func main() {
	var IDX[8], C[16]
	for t = 0 .. 3 {
		parfor i = 0 .. 8 { IDX[i] = IDX[i] + 1 }
		parfor j = 0 .. 8 { C[IDX[j]] = C[IDX[j]] + j }
	}
}
`
	s := newServer(t, Config{})
	for _, tc := range []struct{ src, mode, prefix string }{
		{seqRead, "barrier", "barrier: speccrossgen:"},
		{seqRead, "domore", "domore plan: partition:"},
		{seqRead, "speccross", "profile: speccrossgen:"},
		{seqRead, "adaptive", "profile: speccrossgen:"},
		{seqRead, "auto", "profile: speccrossgen:"},
		{valueDependent, "domore", "domore plan: slice:"},
		{valueDependent, "adaptive", "domore plan: slice:"},
	} {
		resp, status := s.Execute(&RunRequest{Source: tc.src, Mode: tc.mode, Workers: 2, Fresh: true})
		if status != 422 || !strings.HasPrefix(resp.Error, tc.prefix) {
			t.Errorf("%s: %d %q, want 422 %q…", tc.mode, status, resp.Error, tc.prefix)
		}
	}
}

// TestColdAutoStoresChosenEngine pins the plan record of a cold auto
// request: the engine it stores is core.Choose's for the region's profile,
// whether speculation pays (lag 16, two workers) or not (lag 1).
func TestColdAutoStoresChosenEngine(t *testing.T) {
	const workers = 2
	mk := func(lag int) string {
		return `func pipe() {
  var A[520]
  for t = 2 .. 64 {
    parfor i = 0 .. 8 {
      A[t*8 + i] = A[t*8 + i - ` + strconv.Itoa(lag) + `] * 3 + 1
    }
  }
}
`
	}
	engines := map[string]bool{}
	for _, lag := range []int{1, 16} {
		src := mk(lag)
		c, err := core.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := c.ProfileRegion(c.Regions[0], signature.Range)
		if err != nil {
			t.Fatal(err)
		}
		want := core.Choose(prof, workers)
		engines[want] = true

		s := newServer(t, Config{})
		resp, status := s.Execute(&RunRequest{Source: src, Mode: "auto", Workers: workers})
		if status != 200 || !resp.OK || resp.Engine != want {
			t.Fatalf("lag %d: %d %+v, want engine %s", lag, status, resp, want)
		}
		key := plancache.Key{
			SourceHash:  core.SourceHash(src),
			Fingerprint: plancache.Fingerprint(core.PipelineVersion, 0, sigName(signature.Range), c.XDep().Hash()),
		}
		plan, ok := s.store.Get(key)
		if !ok {
			t.Fatalf("lag %d: no plan stored", lag)
		}
		if plan.Engine != want {
			t.Errorf("lag %d: stored engine %q, want %q", lag, plan.Engine, want)
		}
	}
	if !engines["domore"] || !engines["speccross"] {
		t.Fatalf("the two programs chose %v; want one of each engine", engines)
	}
}

// TestRestartKeepsDefaultWindow: an adaptive request that asks for no
// window runs adaptive.DefaultWindow epochs a window, also after a restart
// over a cache a request with another window wrote.
func TestRestartKeepsDefaultWindow(t *testing.T) {
	raw, err := os.ReadFile("../../examples/compiler/cg.lnl") // 40 epochs
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	dir := t.TempDir()
	first := newServer(t, Config{CacheDir: dir})
	if resp, status := first.Execute(&RunRequest{Source: src, Mode: "adaptive", Workers: 2, Window: 8}); status != 200 {
		t.Fatalf("window 8 run: %d %s", status, resp.Error)
	}
	if err := first.Shutdown(); err != nil {
		t.Fatal(err)
	}

	s := newServer(t, Config{CacheDir: dir})
	resp, status := s.Execute(&RunRequest{Source: src, Mode: "adaptive", Workers: 2})
	if status != 200 || resp.Cache != "warm" {
		t.Fatalf("restarted run: %d %q, cache %q; want a warm 200", status, resp.Error, resp.Cache)
	}
	entries := s.Decisions().Snapshot(resp.Invocation)
	if len(entries) == 0 {
		t.Fatal("the adaptive run journaled no decisions")
	}
	if e := entries[0]; e.EndEpoch-e.StartEpoch != adaptive.DefaultWindow {
		t.Errorf("first window spans epochs [%d,%d), want %d epochs", e.StartEpoch, e.EndEpoch, adaptive.DefaultWindow)
	}
}
