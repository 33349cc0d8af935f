package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossinv/internal/analysis/verify"
)

// TestLintCorpusClean asserts the static plan verifier accepts every plan
// the pipeline itself emits: the whole corpus (and the examples) must lint
// without a single diagnostic — the verifier exists to catch corrupted
// plans, not to second-guess correct ones.
func TestLintCorpusClean(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.lnl"))
	if err != nil {
		t.Fatal(err)
	}
	more, err := filepath.Glob(filepath.Join("..", "..", "examples", "compiler", "*.lnl"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, more...)
	if len(files) < 8 {
		t.Fatalf("found only %d programs to lint", len(files))
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(string(src))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if list := c.Lint(); len(list) != 0 {
				t.Errorf("lint diagnostics on a pipeline-emitted plan:\n%s", list.Text())
			}
		})
	}
}

// TestGatesRejectStaleSlot seeds the stale-slot corruption into a compiled
// program and checks that Lint reports it and that no engine will execute
// it: every engine starts in runOutside, where the slot gate sits.
func TestGatesRejectStaleSlot(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "compiler", "stencil.lnl"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	region := c.Regions[len(c.Regions)-1]
	corruption, ok := verify.CorruptSlotAccess(c.Prog)
	if !ok {
		t.Fatal("nothing to corrupt")
	}
	flagged := false
	for _, d := range c.Lint() {
		flagged = flagged || (d.Check == corruption.Check && d.Pos == corruption.Pos)
	}
	if !flagged {
		t.Errorf("Lint did not report the %s corruption at %s", corruption.Name, corruption.Pos)
	}
	for _, engine := range []string{"barrier", "domore", "speccross", "adaptive", "auto"} {
		for _, p := range []Plan{{}, specPlan(false)} {
			_, err := c.Run(region, p, Options{Engine: engine, Workers: 2})
			if err == nil || !strings.Contains(err.Error(), "failed verification") {
				t.Errorf("%s executed a program with a stale slot (err = %v)", engine, err)
			}
		}
	}
}
