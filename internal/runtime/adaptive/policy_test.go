package adaptive_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossinv/internal/runtime/adaptive"
)

func domoreSample(rate float64) adaptive.Sample {
	return adaptive.Sample{Engine: adaptive.EngineDomore, Tasks: 100, ManifestRate: rate}
}

func specSample(misspec bool, pressure float64) adaptive.Sample {
	return adaptive.Sample{Engine: adaptive.EngineSpecCross, Tasks: 100, Misspeculated: misspec, CheckerPressure: pressure}
}

func TestEngineString(t *testing.T) {
	cases := map[adaptive.Engine]string{
		adaptive.EngineBarrier:   "barrier",
		adaptive.EngineDomore:    "domore",
		adaptive.EngineSpecCross: "speccross",
	}
	for e, want := range cases {
		if got := e.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(e), got, want)
		}
	}
	if got := adaptive.Engine(99).String(); got != "engine(99)" {
		t.Errorf("unknown engine String() = %q", got)
	}
}

func TestThresholdBarrierProbes(t *testing.T) {
	p := &adaptive.ThresholdPolicy{}
	if got, _ := p.Decide(adaptive.Sample{Engine: adaptive.EngineBarrier}); got != adaptive.EngineDomore {
		t.Fatalf("after a blind barrier window got %v, want the domore probe", got)
	}
}

func TestThresholdEnterSpeculation(t *testing.T) {
	p := &adaptive.ThresholdPolicy{}
	if got, _ := p.Decide(domoreSample(0.7)); got != adaptive.EngineDomore {
		t.Fatalf("high manifest rate switched to %v", got)
	}
	if got, _ := p.Decide(domoreSample(0.02)); got != adaptive.EngineSpecCross {
		t.Fatalf("low manifest rate got %v, want speccross", got)
	}
}

func TestThresholdMisspeculationBackoff(t *testing.T) {
	p := &adaptive.ThresholdPolicy{}
	if got, _ := p.Decide(specSample(true, 0)); got != adaptive.EngineDomore {
		t.Fatalf("misspeculation got %v, want fallback to domore", got)
	}
	// During the hold, even rate zero must not re-enter speculation.
	for i := 0; i < 4; i++ {
		if got, _ := p.Decide(domoreSample(0)); got != adaptive.EngineDomore {
			t.Fatalf("hold window %d got %v, want domore", i, got)
		}
	}
	// Hold expired: a low window counts again.
	if got, _ := p.Decide(domoreSample(0)); got != adaptive.EngineSpecCross {
		t.Fatalf("post-hold low window got %v, want speccross", got)
	}
}

func TestThresholdCheckerPressure(t *testing.T) {
	p := &adaptive.ThresholdPolicy{}
	if got, _ := p.Decide(specSample(false, 3)); got != adaptive.EngineSpecCross {
		t.Fatalf("moderate pressure got %v, want to stay speculative", got)
	}
	if got, _ := p.Decide(specSample(false, 50)); got != adaptive.EngineDomore {
		t.Fatalf("checker overload got %v, want fallback to domore", got)
	}
}

func TestFixedPolicy(t *testing.T) {
	for eng := adaptive.Engine(0); eng < adaptive.NumEngines; eng++ {
		p := adaptive.Fixed(eng)
		for _, s := range []adaptive.Sample{domoreSample(0.9), domoreSample(0), specSample(true, 99), {Engine: adaptive.EngineBarrier}} {
			if got, _ := p.Decide(s); got != eng {
				t.Fatalf("Fixed(%v).Decide = %v", eng, got)
			}
		}
	}
}

var updateTrace = flag.Bool("update", false, "rewrite testdata/decisions.golden")

// decisionScript is a scripted window sequence that reaches every branch of
// the default policy: the barrier probe, DOMORE above and at the
// speculation bound, the post-misspeculation hold countdown, and SPECCROSS
// misspeculated, over the pressure bound, and healthy.
var decisionScript = []adaptive.Sample{
	{Engine: adaptive.EngineBarrier, Tasks: 100},
	domoreSample(0.7),
	domoreSample(0.05),
	{Engine: adaptive.EngineSpecCross, Tasks: 100, CheckerPressure: 3, PrefilterHitRate: 0.2},
	{Engine: adaptive.EngineSpecCross, Tasks: 100, CheckerPressure: 8, PrefilterHitRate: 0.95},
	specSample(false, 50),
	domoreSample(0),
	domoreSample(0.9),
	domoreSample(0),
	domoreSample(0),
	domoreSample(0.051),
	domoreSample(0.01),
	specSample(true, 50),
	domoreSample(0),
	domoreSample(0),
	domoreSample(0),
	domoreSample(0),
	domoreSample(0.049),
	specSample(true, 0),
	{Engine: adaptive.Engine(9), Tasks: 100},
	{Engine: adaptive.EngineBarrier, Tasks: 100},
}

// TestDecisionTraceGolden pins every (next engine, reason) pair the default
// policy and the pinned policies answer over decisionScript, byte for byte:
// the daemon journals these reasons, so a change to the rule shows here.
func TestDecisionTraceGolden(t *testing.T) {
	var b strings.Builder
	record := func(name string, p adaptive.Policy) {
		for i, s := range decisionScript {
			next, reason := p.Decide(s)
			fmt.Fprintf(&b, "%s\t%d\t%v rate=%.3f misspec=%v pressure=%.2f prefilter=%.2f\t%v\t%s\n",
				name, i, s.Engine, s.ManifestRate, s.Misspeculated, s.CheckerPressure, s.PrefilterHitRate, next, reason)
		}
	}
	record("threshold", &adaptive.ThresholdPolicy{})
	for _, e := range []adaptive.Engine{adaptive.EngineDomore, adaptive.EngineSpecCross, adaptive.EngineBarrier} {
		record("fixed-"+e.String(), adaptive.Fixed(e))
	}
	path := filepath.Join("testdata", "decisions.golden")
	if *updateTrace {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("decision trace differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
