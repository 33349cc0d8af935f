package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// check parses src as one file of package pkg and runs the rules.
func check(t *testing.T, pkg, src string) []Diagnostic {
	t.Helper()
	return checkAs(t, pkg+".go", pkg, src)
}

// checkAs is check for a file with the given name.
func checkAs(t *testing.T, name, pkg, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return CheckFile(fset, pkg, f)
}

func wantRule(t *testing.T, ds []Diagnostic, rule, substr string) {
	t.Helper()
	for _, d := range ds {
		if d.Rule == rule && strings.Contains(d.Msg, substr) {
			return
		}
	}
	t.Fatalf("no %s diagnostic containing %q in %v", rule, substr, ds)
}

func TestStatsAtomicFlagsPlainWrites(t *testing.T) {
	src := `package domore

type Stats struct{ Stalls, RangeStalls, LaneWaits, Iterations, Batches int64 }

func bad(s *Stats) {
	s.Stalls++                   // flagged: increment
	s.Stalls = s.Stalls + 1      // flagged: assignment
	s.RangeStalls += 2           // flagged: compound assignment
	s.LaneWaits++                // flagged: scheduler-lane field
	s.Iterations++               // fine: single-writer field
	s.Batches++                  // fine: driver-only field
	_ = s.Stalls                 // fine: read
}
`
	ds := check(t, "domore", src)
	if got := len(ds); got != 4 {
		t.Fatalf("want 4 diagnostics, got %d: %v", got, ds)
	}
	wantRule(t, ds, "stats-atomic", "increment of audited Stats field Stalls")
	wantRule(t, ds, "stats-atomic", "assignment of audited Stats field Stalls")
	wantRule(t, ds, "stats-atomic", "assignment of audited Stats field RangeStalls")
	wantRule(t, ds, "stats-atomic", "increment of audited Stats field LaneWaits")
}

func TestStatsAtomicFlagsAtomicWrites(t *testing.T) {
	// No engine shares one Stats between its threads, so an atomic write
	// outside fold breaks the contract as surely as a plain one.
	src := `package domore

import "sync/atomic"

type Stats struct{ Stalls, Iterations int64 }

func worker(stats *Stats) {
	atomic.AddInt64(&stats.Stalls, 1)     // flagged
	atomic.AddInt64(&stats.Iterations, 1) // fine: not an audited field
	_ = atomic.LoadInt64(&stats.Stalls)   // fine: a read
}
`
	ds := check(t, "domore", src)
	if len(ds) != 1 {
		t.Fatalf("want exactly the atomic Stalls write flagged, got %v", ds)
	}
	wantRule(t, ds, "stats-atomic", "atomic.AddInt64 of audited Stats field Stalls")
}

func TestStatsAtomicAllowsQuiesceFold(t *testing.T) {
	// The per-thread counter discipline: threads bump private plain
	// counters, and only fold — run at quiesce — writes the Stats fields.
	src := `package speccross

type Stats struct{ RangeStalls, PrefilterHits int64 }
type state struct{ local []struct{ rangeStalls int64 } }

func (st *state) fold(stats *Stats) {
	for i := range st.local {
		stats.RangeStalls += st.local[i].rangeStalls
		st.local[i].rangeStalls = 0
	}
}

func (st *state) worker(stats *Stats) { stats.PrefilterHits++ }
`
	ds := check(t, "speccross", src)
	if len(ds) != 1 {
		t.Fatalf("want exactly the worker's write flagged, got %v", ds)
	}
	wantRule(t, ds, "stats-atomic", "increment of audited Stats field PrefilterHits")
}

func TestStatsAtomicScopedToEnginePackages(t *testing.T) {
	// Post-join aggregation outside the engines (adaptive's window merge,
	// the simulator) legitimately uses plain arithmetic — same source,
	// different package name, zero findings.
	src := `package adaptive

type Stats struct{ Stalls int64 }

func addDomore(dst, s *Stats) { dst.Stalls += s.Stalls }
`
	if ds := check(t, "adaptive", src); len(ds) != 0 {
		t.Fatalf("aggregation outside engine packages flagged: %v", ds)
	}
}

func TestNilGuardAcceptsAllThreeIdioms(t *testing.T) {
	src := `package trace

type Recorder struct{ n int }
type ThreadTrace struct{ r *Recorder }

// Leading early-return guard.
func (r *Recorder) Summary() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Guard as the whole body.
func (t *ThreadTrace) Enabled() bool { return t != nil }

// Inverted body-wrapping guard.
func (r *Recorder) WriteChrome() int {
	var out int
	if r != nil {
		out = r.n
	}
	return out
}

// Unexported methods are called only behind an exported guard; exempt.
func (r *Recorder) now() int { return r.n }
`
	if ds := check(t, "trace", src); len(ds) != 0 {
		t.Fatalf("guarded idioms flagged: %v", ds)
	}
}

func TestNilGuardFlagsUnguardedExportedMethod(t *testing.T) {
	src := `package trace

type Recorder struct{ n int }
type other struct{ n int }

func (r *Recorder) Events() int { return r.n }

// Non-trace types in the same package are out of scope.
func (o *other) Count() int { return o.n }
`
	ds := check(t, "trace", src)
	if got := len(ds); got != 1 {
		t.Fatalf("want 1 diagnostic, got %d: %v", got, ds)
	}
	wantRule(t, ds, "trace-nil-guard", "(*Recorder).Events has no nil-receiver guard")
}

func TestNilGuardScopedToTracePackage(t *testing.T) {
	src := `package notrace

type Recorder struct{ n int }

func (r *Recorder) Events() int { return r.n }
`
	if ds := check(t, "notrace", src); len(ds) != 0 {
		t.Fatalf("Recorder outside package trace flagged: %v", ds)
	}
}

func TestOneWaitFlagsGoschedOutsideThePrimitive(t *testing.T) {
	src := `package domore

import "runtime"

func (st *state) await(done *int64, target int64) {
	for *done < target {
		runtime.Gosched()
	}
}
`
	ds := check(t, "domore", src)
	if len(ds) != 1 {
		t.Fatalf("want the injected Gosched flagged once, got %v", ds)
	}
	wantRule(t, ds, "one-wait", "runtime.Gosched outside engine/wait.go")
	if ds[0].Pos.Line != 7 {
		t.Errorf("reported at line %d, want the call on line 7", ds[0].Pos.Line)
	}

	// An aliased import does not hide the call.
	aliased := strings.Replace(strings.Replace(src, `import "runtime"`, `import rt "runtime"`, 1), "runtime.Gosched", "rt.Gosched", 1)
	wantRule(t, check(t, "domore", aliased), "one-wait", "Gosched")
}

func TestOneWaitScopedToThePrimitiveAndTheWaitingPackages(t *testing.T) {
	src := `package engine

import "runtime"

func pause() { runtime.Gosched() }
`
	if ds := checkAs(t, "wait.go", "engine", src); len(ds) != 0 {
		t.Fatalf("the wait primitive's own file flagged: %v", ds)
	}
	wantRule(t, checkAs(t, "engine.go", "engine", src), "one-wait", "Gosched")
	chaos := strings.Replace(src, "package engine", "package chaos", 1)
	if ds := check(t, "chaos", chaos); len(ds) != 0 {
		t.Fatalf("Gosched outside the waiting packages flagged: %v", ds)
	}
}

func TestCheckFilesSkipsTestsAndReportsParseErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "a.go")
	testf := filepath.Join(dir, "a_test.go")
	broken := filepath.Join(dir, "b.go")
	os.WriteFile(good, []byte("package domore\ntype Stats struct{ Stalls int64 }\nfunc f(s *Stats) { s.Stalls++ }\n"), 0o644)
	os.WriteFile(testf, []byte("package domore\nfunc g(s *Stats) { s.Stalls = 7 }\n"), 0o644)
	os.WriteFile(broken, []byte("package domore\nfunc {"), 0o644)

	ds := CheckFiles([]string{good, testf, broken})
	wantRule(t, ds, "stats-atomic", "Stalls")
	wantRule(t, ds, "parse", "expected")
	for _, d := range ds {
		if strings.HasSuffix(d.Pos.Filename, "_test.go") {
			t.Fatalf("test file was not skipped: %v", d)
		}
	}
}

// TestRepoIsClean runs the pass over the real runtime tree: the audited
// code must satisfy its own rules (this is the same sweep CI runs via
// `go vet -vettool`).
func TestRepoIsClean(t *testing.T) {
	root := filepath.Join("..", "runtime")
	if _, err := os.Stat(root); err != nil {
		t.Skipf("runtime tree not present: %v", err)
	}
	ds, err := CheckDir(root)
	if err != nil {
		t.Fatalf("CheckDir: %v", err)
	}
	if len(ds) != 0 {
		for _, d := range ds {
			t.Errorf("%s", d)
		}
	}
}
