package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossinv/internal/analysis/verify"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
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
// it: every Run* mode starts in runOutside, where the slot gate sits.
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
	runs := map[string]func() error{
		"barrier":        func() error { _, err := c.RunBarriers(region, 2); return err },
		"domore":         func() error { _, err := runDOMORE(c, region, domore.Options{Workers: 2}); return err },
		"domore-sharded": func() error { _, err := runDOMORESharded(c, region, domore.Options{Workers: 2}); return err },
		"speccross":      func() error { _, err := runSpecCross(c, region, speccross.Config{Workers: 2}, false); return err },
		"adaptive":       func() error { _, err := c.RunAdaptive(region, adaptive.Config{Workers: 2}); return err },
	}
	for mode, run := range runs {
		if err := run(); err == nil || !strings.Contains(err.Error(), "failed verification") {
			t.Errorf("%s executed a program with a stale slot (err = %v)", mode, err)
		}
	}
}
