package verify_test

import (
	"strings"
	"testing"

	"crossinv/internal/analysis/verify"
	"crossinv/internal/analysis/xdep"
	"crossinv/internal/diag"
	"crossinv/internal/transform/speccrossgen"
)

// xdepPipeSrc is the canonical forward-only pipeline: each invocation of
// the inner parfor writes a fresh 8-element block and reads the previous
// invocation's block.
const xdepPipeSrc = `func pipe() {
	var A[520]
	parfor s = 0 .. 520 {
		A[s] = s * 5 % 11
	}
	for t = 1 .. 64 {
		parfor i = 0 .. 8 {
			A[t*8 + i] = A[t*8 + i - 8] * 3 + 1
		}
	}
}`

// xdepAnalyze compiles src and returns everything verify.XDep needs plus
// a fresh facts report to corrupt.
func xdepAnalyze(t *testing.T, src string) (run func(*xdep.Facts) diag.List, facts *xdep.Facts) {
	t.Helper()
	p, dep := compile(t, src)
	regions := speccrossgen.Detect(p)
	run = func(f *xdep.Facts) diag.List {
		return verify.XDep(p, dep, regions, f)
	}
	return run, xdep.Analyze(p, dep, regions)
}

func wantXDepError(t *testing.T, list diag.List, substr string) {
	t.Helper()
	for _, d := range list {
		if d.Check == verify.CheckXDep && d.Severity == diag.Error && strings.Contains(d.Msg, substr) {
			return
		}
	}
	t.Errorf("no xdep error containing %q; got:\n%s", substr, list.Text())
}

func TestXDepCleanFactsVerify(t *testing.T) {
	for _, src := range []string{xdepPipeSrc, cgSrc, stencilSrc} {
		run, facts := xdepAnalyze(t, src)
		if list := run(facts); len(list) != 0 {
			t.Errorf("untouched facts flagged:\n%s", list.Text())
		}
	}
}

func TestXDepCatchesFlippedDirection(t *testing.T) {
	run, facts := xdepAnalyze(t, xdepPipeSrc)
	if !xdep.CorruptFlipDirection(facts) {
		t.Fatal("CorruptFlipDirection found nothing to flip")
	}
	wantXDepError(t, run(facts), "direction vector")
}

func TestXDepCatchesDroppedPair(t *testing.T) {
	run, facts := xdepAnalyze(t, xdepPipeSrc)
	if !xdep.CorruptDropPair(facts) {
		t.Fatal("CorruptDropPair found nothing to drop")
	}
	wantXDepError(t, run(facts), "every access pair")
}

func TestXDepCatchesWidenedVerdict(t *testing.T) {
	// The widened verdict is the dangerous direction: the report claims
	// "none" where the analyzer proves a recurrence, so any plan built on
	// it would drop synchronization. The message must say so.
	run, facts := xdepAnalyze(t, stencilSrc)
	if !xdep.CorruptWidenCyclic(facts) {
		t.Fatal("CorruptWidenCyclic found no cyclic region")
	}
	wantXDepError(t, run(facts), "contradicts a proven cross-invocation dependence")
}

func TestXDepNilAndSchemaDrift(t *testing.T) {
	run, facts := xdepAnalyze(t, xdepPipeSrc)
	wantXDepError(t, run(nil), "no cross-invocation facts")

	facts.Schema = "crossinv-xdep/v0"
	wantXDepError(t, run(facts), "schema")
}

func TestXDepStaleDistance(t *testing.T) {
	run, facts := xdepAnalyze(t, xdepPipeSrc)
	facts.Regions[0].MinDistance += 4
	wantXDepError(t, run(facts), "distances")
}
