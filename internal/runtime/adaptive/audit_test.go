package adaptive_test

import (
	"strings"
	"testing"

	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
)

// TestDecisionAudit drives the phased kernel with the audit hook and the
// trace recorder on: every window must produce one Decision carrying a
// non-empty reason, the injected misspeculation must be explained as the
// ground for its switch, and the controller must emit one request span
// per window parented under the caller-provided span id.
func TestDecisionAudit(t *testing.T) {
	k := buildKernel(false)
	rec := trace.NewRecorder()
	var decisions []adaptive.Decision
	cfg := adaptive.Config{
		Workers: 4,
		Window:  8,
		Spec: speccross.Config{
			SpecDistance:      safeDist,
			ForceMisspecEpoch: 66,
		},
		Trace:      rec,
		SpanParent: 99,
		SeedSource: "test:manual",
		OnDecision: func(d adaptive.Decision) { decisions = append(decisions, d) },
	}
	stats := adaptive.Run(k, cfg)

	if len(decisions) != stats.Windows {
		t.Fatalf("got %d decisions for %d windows", len(decisions), stats.Windows)
	}
	sawMisspec := false
	for i, d := range decisions {
		if d.Window != i {
			t.Errorf("decision %d has Window %d", i, d.Window)
		}
		if d.Reason == "" {
			t.Errorf("decision %d has empty reason", i)
		}
		if d.SeedSource != "test:manual" {
			t.Errorf("decision %d seed source = %q", i, d.SeedSource)
		}
		if d.WindowNs <= 0 {
			t.Errorf("decision %d WindowNs = %d", i, d.WindowNs)
		}
		if d.Sample != stats.Samples[i] {
			t.Errorf("decision %d sample diverges from stats.Samples", i)
		}
		if d.Sample.Misspeculated {
			sawMisspec = true
			if !d.Switched || d.Next != adaptive.EngineDomore {
				t.Errorf("misspeculating window %d: Switched=%v Next=%v", i, d.Switched, d.Next)
			}
			if !strings.Contains(d.Reason, "misspeculated") {
				t.Errorf("misspeculating window reason = %q", d.Reason)
			}
			if !strings.Contains(d.Reason, "for 4 windows") {
				t.Errorf("misspeculating window reason = %q, want the hysteresis hold", d.Reason)
			}
		}
	}
	if !sawMisspec {
		t.Fatal("no decision covered the injected misspeculation")
	}

	// One window span per window, parented under SpanParent.
	var winSpans int
	for _, s := range rec.Spans() {
		if s.Kind == "window" {
			winSpans++
			if s.Parent != 99 {
				t.Errorf("window span parent = %d, want 99", s.Parent)
			}
			if s.Lane != trace.LaneControl {
				t.Errorf("window span lane = %d, want control", s.Lane)
			}
			if s.EndNs == 0 {
				t.Error("window span left open")
			}
		}
	}
	if winSpans != stats.Windows {
		t.Errorf("window spans = %d, want %d", winSpans, stats.Windows)
	}

	// Every decision names the runtime the run was given: 4 workers and an
	// explicit 2 checker shards are 6 threads once a SPECCROSS window has
	// run, and a second Run is handed the first one's runtime by the pool.
	decisions = decisions[:0]
	cfg.Spec.CheckerShards, cfg.Trace = 2, nil
	adaptive.Run(buildKernel(false), cfg)
	for i, d := range decisions {
		if !d.RuntimeReused || d.CheckerShards != 2 {
			t.Fatalf("decision %d of a second Run: runtime reused %v, %d checker shards; want reused, 2", i, d.RuntimeReused, d.CheckerShards)
		}
	}
	if n := decisions[len(decisions)-1].RuntimeThreads; n != 6 {
		t.Errorf("last decision counts %d runtime threads, want 4 workers + 2 checker shards", n)
	}
}
