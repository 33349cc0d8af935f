package main

import (
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"crossinv/internal/daemon"
	"crossinv/internal/obs"
)

// TestRemoteFreshWithExplainAndMisspec: a plain -remote repeat is answered
// from the daemon's memory, while -explain and -misspec ask for (and get) a
// real execution — the only kind that journals decisions or can take an
// injected fault.
func TestRemoteFreshWithExplainAndMisspec(t *testing.T) {
	src, err := os.ReadFile("../../examples/compiler/cg.lnl")
	if err != nil {
		t.Fatal(err)
	}
	s, err := daemon.New(daemon.Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		_ = s.Shutdown() // only flushes cache statistics
	}()

	steps := []struct {
		name             string
		misspec          int
		explain          bool
		wantHit, wantRun int64 // movement of result.hit and admitted
	}{
		{name: "first", wantRun: 1},
		{name: "repeat", wantHit: 1},
		{name: "explain", explain: true, wantRun: 1},
		{name: "misspec", misspec: 3, wantRun: 1},
		{name: "repeat again", wantHit: 1},
	}
	for _, st := range steps {
		before := s.Counters()
		journal := len(s.Decisions().Snapshot(""))
		if err := runRemote(ts.URL, string(src), "adaptive", 2, -1, 8, st.misspec, st.explain); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		after := s.Counters()
		if hit, ran := after["daemon.result.hit"]-before["daemon.result.hit"], after["daemon.admitted"]-before["daemon.admitted"]; hit != st.wantHit || ran != st.wantRun {
			t.Errorf("%s: served %d, executed %d; want %d and %d", st.name, hit, ran, st.wantHit, st.wantRun)
		}
		if grew := len(s.Decisions().Snapshot("")) > journal; grew != (st.wantRun == 1) {
			t.Errorf("%s: decision journal grew = %v, want %v", st.name, grew, st.wantRun == 1)
		}
	}
}

// TestRenderDecisionsNamesTheRuntime: the audit opens with the engine
// runtime the run was given, taken from the last window's entry.
func TestRenderDecisionsNamesTheRuntime(t *testing.T) {
	out := renderDecisions([]obs.DecisionEntry{
		{Window: 0, Engine: "domore", Next: "speccross", RuntimeReused: true, RuntimeThreads: 2, CheckerShards: 1},
		{Window: 1, Engine: "speccross", Next: "speccross", RuntimeReused: true, RuntimeThreads: 3, CheckerShards: 1},
	})
	if first, _, _ := strings.Cut(out, "\n"); first != "  runtime: reused, 3 threads, 1 checker shards" {
		t.Errorf("audit opens with %q", first)
	}
	if out := renderDecisions([]obs.DecisionEntry{{RuntimeThreads: 4, CheckerShards: 2}}); !strings.HasPrefix(out, "  runtime: new, 4 threads, 2 checker shards\n") {
		t.Errorf("audit of a run on a new runtime opens with %q", out)
	}
}
