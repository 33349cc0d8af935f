package core

import (
	"os"
	"path/filepath"
	"testing"

	"crossinv/internal/raceflag"
)

// TestCorpus runs every loop-nest-language program in testdata through the
// whole pipeline under all execution strategies and checks bit-exact
// equivalence with sequential execution. The corpus covers disjoint and
// chained dataflow, strided subscripts, nested conditionals, scalar-derived
// bounds, and negative-value arithmetic.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.lnl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("corpus has %d programs, expected at least 6", len(files))
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
			if len(c.Regions) == 0 {
				t.Fatal("no candidate region detected")
			}
			want := seqChecksum(t, c)
			region := c.Regions[len(c.Regions)-1]

			if res, err := c.Run(region, Plan{}, Options{Engine: "barrier", Workers: 4}); err != nil {
				t.Errorf("barrier: %v", err)
			} else if got := res.Env.Checksum(); got != want {
				t.Errorf("barrier checksum %x != sequential %x", got, want)
			}

			if res, err := c.Run(region, Plan{}, Options{Engine: "domore", Workers: 4}); err != nil {
				t.Logf("domore inapplicable: %v", err)
			} else if got := res.Env.Checksum(); got != want {
				t.Errorf("domore checksum %x != sequential %x", got, want)
			}

			// Under the race detector, profile first so speculation is
			// gated (unbounded speculation over conflicts is racy by
			// design, §4.2.1).
			res, err := c.Run(region, specPlan(raceflag.Enabled), Options{Engine: "speccross", Workers: 4})
			if err != nil {
				t.Errorf("speccross: %v", err)
			} else if got := res.Env.Checksum(); got != want {
				t.Errorf("speccross checksum %x != sequential %x", got, want)
			}
		})
	}
}
