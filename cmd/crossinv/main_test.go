package main

import (
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossinv/internal/core"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

func compileFile(t *testing.T, path string) *core.Compiled {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(string(src))
	if err != nil {
		t.Fatalf("compile %s: %v", path, err)
	}
	return c
}

func checkGolden(t *testing.T, goldenPath, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestServeLoop drives the -serve path end to end: a real listener, the
// observability mux over a shared recorder, and the compiled CG example
// looping under DOMORE. The first run blocks until the test has scraped
// /metrics mid-flight, proving the surface serves while work is pending.
func TestServeLoop(t *testing.T) {
	c := compileFile(t, filepath.Join("..", "..", "examples", "compiler", "cg.lnl"))
	if len(c.Regions) == 0 {
		t.Fatal("cg.lnl has no candidate region")
	}
	target, err := c.Region(len(c.Regions) - 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	release := make(chan struct{})
	first := true
	done := make(chan error, 1)
	go func() {
		done <- serveOn(ln, 3, rec, func() {
			if first {
				first = false
				<-release
			}
			if _, err := c.Run(target, core.Plan{}, core.Options{Engine: "domore", Workers: 2, Trace: rec}); err != nil {
				t.Error(err)
			}
		})
	}()

	// No keep-alives: the post-shutdown probe must dial fresh rather than
	// reuse a connection that survives the listener close.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	// Scrape while the first run is held open.
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-run /metrics: %s", resp.Status)
	}
	if !strings.Contains(string(body), "crossinv_serve_runs 0") {
		t.Errorf("mid-run scrape should report 0 completed runs:\n%s", body)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("serveOn: %v", err)
	}

	// The listener is closed with the loop; the port must be dead.
	if _, err := client.Get(base + "/metrics"); err == nil {
		t.Error("server still reachable after the run loop ended")
	}
	// Each run's DOMORE guard records its decision, whether it stayed
	// inline or scheduled the rest.
	if got := rec.Summary().Counts[trace.KindInline]; got != 3 {
		t.Errorf("%d DOMORE guard decisions recorded across 3 serve runs", got)
	}
}

// TestCheckpointLine pins -explain's checkpoint line: every checkpoint is
// of the one cell image, so it reads checkpoints, the dirty cells the
// commits refreshed, rollbacks and time, with no split by kind.
func TestCheckpointLine(t *testing.T) {
	st := speccross.Stats{Checkpoints: 5, DeltaCheckpoints: 3, DeltaCells: 120, Misspeculations: 1, CheckpointNs: 42_400}
	want := "  checkpoints: 5, 120 dirty cells, 1 rollbacks, 42µs on the cell image"
	if got := checkpointLine(st); got != want {
		t.Fatalf("checkpointLine = %q, want %q", got, want)
	}
}

// TestReportGolden pins the -report format for the example programs.
func TestReportGolden(t *testing.T) {
	for _, name := range []string{"cg", "stencil"} {
		t.Run(name, func(t *testing.T) {
			c := compileFile(t, filepath.Join("..", "..", "examples", "compiler", name+".lnl"))
			checkGolden(t, filepath.Join("testdata", name+".report.golden"), reportOutput(c))
		})
	}
}

// TestAnalyzeGolden pins the -analyze cross-invocation dependence report
// (text and JSON) across the classification spectrum: stencil and
// bad_parfor (cyclic — every invocation rewrites the same locations), and
// cg and irregular (unknown — symbolic bounds, index-array subscripts).
func TestAnalyzeGolden(t *testing.T) {
	examples := map[string]string{
		"stencil":    filepath.Join("..", "..", "examples", "compiler", "stencil.lnl"),
		"cg":         filepath.Join("..", "..", "examples", "compiler", "cg.lnl"),
		"bad_parfor": filepath.Join("testdata", "bad_parfor.lnl"),
		"irregular":  filepath.Join("testdata", "irregular.lnl"),
	}
	for name, path := range examples {
		t.Run(name, func(t *testing.T) {
			c := compileFile(t, path)
			out, err := analyzeOutput(c, false)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", name+".analyze.golden"), out)
		})
	}

	// The JSON form is the serialized Facts — the exact bytes whose hash
	// feeds the plan-cache fingerprint — pinned once for the irregular case.
	c := compileFile(t, examples["irregular"])
	jsonText, err := analyzeOutput(c, true)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "irregular.analyze.json.golden"), jsonText)
	if !strings.Contains(jsonText, `"class": "unknown"`) {
		t.Error("irregular JSON report lost the unknown classification")
	}
}

// TestLintGolden pins the -lint output: empty (and exit-clean) for the
// example programs, and the exact text and JSON diagnostics for a program
// whose parfor annotation the verifier disproves.
func TestLintGolden(t *testing.T) {
	for _, name := range []string{"cg", "stencil"} {
		t.Run(name, func(t *testing.T) {
			c := compileFile(t, filepath.Join("..", "..", "examples", "compiler", name+".lnl"))
			out, hasErrors, err := lintOutput(c, name+".lnl", false)
			if err != nil {
				t.Fatal(err)
			}
			if hasErrors {
				t.Errorf("example %s has lint errors:\n%s", name, out)
			}
			checkGolden(t, filepath.Join("testdata", name+".lint.golden"), out)
		})
	}

	c := compileFile(t, filepath.Join("testdata", "bad_parfor.lnl"))
	out, hasErrors, err := lintOutput(c, "bad_parfor.lnl", false)
	if err != nil {
		t.Fatal(err)
	}
	if !hasErrors {
		t.Error("bad_parfor.lnl linted clean")
	}
	checkGolden(t, filepath.Join("testdata", "bad_parfor.lint.golden"), out)

	jsonText, hasErrors, err := lintOutput(c, "bad_parfor.lnl", true)
	if err != nil {
		t.Fatal(err)
	}
	if !hasErrors {
		t.Error("JSON path lost the error severity")
	}
	checkGolden(t, filepath.Join("testdata", "bad_parfor.lint.json.golden"), jsonText)
}
