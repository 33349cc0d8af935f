package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"crossinv/internal/daemon"
)

// TestMain doubles as the crossinvd child process: when re-executed with
// CROSSINVD_CHILD=1 the test binary runs the real main() (real flag
// parsing, real signal handling), so the smoke test below exercises the
// daemon end to end including SIGTERM — without needing `go build` inside
// the test.
func TestMain(m *testing.M) {
	if os.Getenv("CROSSINVD_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startChild launches crossinvd as a subprocess on an ephemeral port and
// returns its base URL, the running command, and a channel that yields
// the full stdout after exit.
func startChild(t *testing.T, cacheDir string, extraArgs ...string) (string, *exec.Cmd, <-chan string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-cache", cacheDir}, extraArgs...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CROSSINVD_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})

	// Handshake: scrape the resolved port from the startup line.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("crossinvd child produced no startup line (err %v)", sc.Err())
	}
	first := sc.Text()
	mURL := regexp.MustCompile(`http://([0-9.:]+)`).FindStringSubmatch(first)
	if mURL == nil {
		t.Fatalf("no address in startup line %q", first)
	}

	rest := make(chan string, 1)
	go func() {
		var sb strings.Builder
		sb.WriteString(first + "\n")
		for sc.Scan() {
			sb.WriteString(sc.Text() + "\n")
		}
		rest <- sb.String()
	}()
	return "http://" + mURL[1], cmd, rest
}

func post(t *testing.T, base string, req *daemon.RunRequest) (*daemon.RunResponse, int) {
	t.Helper()
	raw, _ := json.Marshal(req)
	httpResp, err := http.Post(base+"/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer httpResp.Body.Close()
	var resp daemon.RunResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &resp, httpResp.StatusCode
}

// TestDaemonSmoke is the CI smoke scenario end to end against a real
// crossinvd process: ≥16 concurrent invocations on a temp cache dir,
// /healthz asserted, a second round served from cache, then SIGTERM
// drains with zero dropped accepted requests and a clean exit.
func TestDaemonSmoke(t *testing.T) {
	src, err := os.ReadFile("../../examples/compiler/cg.lnl")
	if err != nil {
		t.Fatal(err)
	}
	// Queue deep enough that all 16 concurrent requests are accepted
	// (rejects are covered by the internal/daemon tests); workers 2 and
	// max-inflight 4 keep the 1-CPU CI box from thrashing.
	base, cmd, finalOut := startChild(t, t.TempDir(),
		"-max-inflight", "4", "-queue", "32", "-queue-timeout", "60s", "-workers", "2")

	req := func(mode string) *daemon.RunRequest {
		return &daemon.RunRequest{Source: string(src), Mode: mode, Workers: 2}
	}

	// Round 1: 16 concurrent invocations of three distinct requests, all
	// must succeed — each request's first arrival executes, the rest wait on
	// it or are answered from its verified result.
	const n = 16
	var want atomic.Uint64
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, status := post(t, base, req([]string{"domore", "speccross", "auto"}[i%3]))
			if status != 200 {
				t.Errorf("round 1 req %d: %d %s", i, status, resp.Error)
				return
			}
			if prev := want.Swap(resp.Checksum); prev != 0 && prev != resp.Checksum {
				t.Errorf("checksum drift: %x vs %x", prev, resp.Checksum)
			}
			if !resp.Memo && !resp.Coalesced {
				ran.Add(1)
			} else if resp.Leader == "" {
				t.Errorf("round 1 req %d served without naming its leader: %+v", i, resp)
			}
		}(i)
	}
	wg.Wait()
	if ran.Load() != 3 {
		t.Errorf("round 1 executed %d of %d invocations, want 3 (one per distinct request)", ran.Load(), n)
	}

	httpResp, err := http.Get(base + "/healthz")
	if err != nil || httpResp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, httpResp)
	}
	httpResp.Body.Close()

	// Round 2: every invocation must be a pure cache hit — zero analysis.
	for _, mode := range []string{"domore", "speccross", "auto"} {
		resp, status := post(t, base, req(mode))
		if status != 200 {
			t.Fatalf("round 2 %s: %d %s", mode, status, resp.Error)
		}
		if resp.Cache != "hot" || resp.AnalysisSpans != 0 || !resp.Memo {
			t.Errorf("round 2 %s: cache %q spans %d memo %v, want hot/0/true", mode, resp.Cache, resp.AnalysisSpans, resp.Memo)
		}
		// Asked to run, the hot engine path still does, with no analysis.
		fresh := req(mode)
		fresh.Fresh = true
		resp, status = post(t, base, fresh)
		if status != 200 || resp.Memo || resp.Coalesced || resp.Cache != "hot" || resp.AnalysisSpans != 0 {
			t.Errorf("round 2 fresh %s: %d %+v, want an executed hot run", mode, status, resp)
		}
	}

	// Round 3: SIGTERM mid-storm. Every request must get a definitive
	// answer: 200 (accepted before drain, completed during it) or 503.
	// Fresh, so the storm holds execution slots while the drain begins.
	var inflight sync.WaitGroup
	for i := 0; i < 8; i++ {
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			fresh := req("domore")
			fresh.Fresh = true
			resp, status := post(t, base, fresh)
			if status != 200 && status != 503 && status != 429 {
				t.Errorf("drain round: %d %s", status, resp.Error)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	inflight.Wait()

	// Drain stdout to EOF before Wait: Wait closes the pipe and would
	// race the reader goroutine out of the final drain summary.
	out := <-finalOut
	if err := cmd.Wait(); err != nil {
		t.Fatalf("crossinvd exit: %v", err)
	}
	if !strings.Contains(out, "draining") {
		t.Errorf("no drain line in output:\n%s", out)
	}
	drained := regexp.MustCompile(`drained \(admitted (\d+), completed (\d+),`).FindStringSubmatch(out)
	if drained == nil {
		t.Fatalf("no drained summary in output:\n%s", out)
	}
	if drained[1] != drained[2] {
		t.Errorf("drain dropped accepted requests: admitted %s, completed %s", drained[1], drained[2])
	}

	// The cache dir survives the daemon: stats were flushed on drain.
	if !strings.Contains(out, "cache hot/warm/cold") {
		t.Errorf("no cache summary in output:\n%s", out)
	}
	// Rounds 1 and 2 together: 3 executions, 3 fresh runs, 13 + 3 served.
	served := regexp.MustCompile(`served from memory (\d+), coalesced (\d+)\)`).FindStringSubmatch(out)
	if served == nil {
		t.Fatalf("no served summary in output:\n%s", out)
	}
	hits, _ := strconv.Atoi(served[1])
	joined, _ := strconv.Atoi(served[2])
	if hits+joined != n-3+3 {
		t.Errorf("served from memory %d + coalesced %d, want %d", hits, joined, n)
	}
}

// TestRemoteClientAgainstDaemon drives the crossinv -remote client path
// (runRemote lives in cmd/crossinv) indirectly: same wire protocol, here
// exercised with raw requests across a daemon restart to confirm the
// warm path over the same cache dir.
func TestWarmRestartAcrossProcesses(t *testing.T) {
	src, err := os.ReadFile("../../examples/compiler/cg.lnl")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	base, cmd, _ := startChild(t, dir, "-workers", "2")
	cold, status := post(t, base, &daemon.RunRequest{Source: string(src), Mode: "speccross", Workers: 2})
	if status != 200 || cold.Cache != "cold" {
		t.Fatalf("cold round: status %d cache %q (%s)", status, cold.Cache, cold.Error)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("first daemon exit: %v", err)
	}

	base2, cmd2, _ := startChild(t, dir, "-workers", "2")
	warm, status := post(t, base2, &daemon.RunRequest{Source: string(src), Mode: "speccross", Workers: 2})
	if status != 200 {
		t.Fatalf("warm round: %d %s", status, warm.Error)
	}
	if warm.Cache != "warm" {
		t.Errorf("restart run classified %q, want warm", warm.Cache)
	}
	if warm.Checksum != cold.Checksum {
		t.Errorf("warm checksum %x != cold %x", warm.Checksum, cold.Checksum)
	}
	_ = cmd2.Process.Signal(syscall.SIGTERM)
	_ = cmd2.Wait()
}

var _ = fmt.Sprintf // keep fmt imported for debug edits
