package core

import (
	"testing"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
)

// Programs exercising less-common shapes through the whole pipeline.

const condSrc = `
func cond() {
  var A[80], B[80]
  parfor s = 0 .. 80 { B[s] = s * 13 % 29 }
  for t = 0 .. 10 {
    parfor i = 0 .. 80 {
      if B[i] % 2 == 0 {
        A[i] = A[i] + B[i]
      } else {
        A[i] = A[i] * 2 + 1
      }
    }
    parfor j = 0 .. 80 { B[j] = A[j] % 101 + t }
  }
}
`

func TestConditionalBodyAllStrategies(t *testing.T) {
	c := compileT(t, condSrc)
	want := seqChecksum(t, c)
	region := c.Regions[len(c.Regions)-1]

	b, err := c.RunBarriers(region, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Env.Checksum() != want {
		t.Fatal("barrier diverged on conditional body")
	}

	d, err := runDOMORE(c, region, domore.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Env.Checksum() != want {
		t.Fatal("domore diverged on conditional body")
	}

	s, err := runSpecCross(c, region, speccross.Config{Workers: 3, CheckpointEvery: 5}, raceflag.Enabled)
	if err != nil {
		t.Fatal(err)
	}
	if s.Env.Checksum() != want {
		t.Fatal("speccross diverged on conditional body")
	}
}

const emptyInnerSrc = `
func g() {
  var A[10]
  for t = 0 .. 5 {
    parfor i = 3 .. 3 { A[i] = i }
    parfor j = 0 .. 10 { A[j] = A[j] + t }
  }
}
`

func TestEmptyInnerInvocation(t *testing.T) {
	c := compileT(t, emptyInnerSrc)
	want := seqChecksum(t, c)
	region := c.Regions[0]
	for _, run := range []struct {
		name string
		f    func() (uint64, error)
	}{
		{"barrier", func() (uint64, error) {
			r, err := c.RunBarriers(region, 2)
			if err != nil {
				return 0, err
			}
			return r.Env.Checksum(), nil
		}},
		{"domore", func() (uint64, error) {
			r, err := runDOMORE(c, region, domore.Options{Workers: 2})
			if err != nil {
				return 0, err
			}
			return r.Env.Checksum(), nil
		}},
		{"speccross", func() (uint64, error) {
			r, err := runSpecCross(c, region, speccross.Config{Workers: 2, CheckpointEvery: 3}, raceflag.Enabled)
			if err != nil {
				return 0, err
			}
			return r.Env.Checksum(), nil
		}},
	} {
		got, err := run.f()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if got != want {
			t.Fatalf("%s diverged on empty invocations", run.name)
		}
	}
}

const decreasingBounds = `
func h() {
  var A[30]
  for t = 0 .. 4 {
    parfor i = 20 .. 10 { A[i] = 999 }
    parfor j = 0 .. 30 { A[j] = A[j] + 1 }
  }
}
`

func TestDegenerateBoundsTreatedAsEmpty(t *testing.T) {
	c := compileT(t, decreasingBounds)
	want := seqChecksum(t, c)
	region := c.Regions[0]
	r, err := runDOMORE(c, region, domore.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Env.Checksum() != want {
		t.Fatal("domore diverged on degenerate bounds")
	}
	s, err := runSpecCross(c, region, speccross.Config{Workers: 2, CheckpointEvery: 2}, raceflag.Enabled)
	if err != nil {
		t.Fatal(err)
	}
	if s.Env.Checksum() != want {
		t.Fatal("speccross diverged on degenerate bounds")
	}
}

func TestRunSpecCrossUnprofitableFallsBackToBarriers(t *testing.T) {
	// Tight dependence distance (cells revisited next invocation on the
	// next index): with many workers the profiler must decline and the
	// pipeline must fall back to correct barrier execution.
	src := `
	func f() {
	  var A[6]
	  for t = 0 .. 30 {
	    parfor i = 0 .. 6 { A[i] = A[i] * 3 + i + t }
	  }
	}`
	c := compileT(t, src)
	want := seqChecksum(t, c)
	region := c.Regions[0]
	res, err := runSpecCross(c, region, speccross.Config{Workers: 8, CheckpointEvery: 10}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Env.Checksum() != want {
		t.Fatal("fallback execution diverged")
	}
	if res.Profile.MinDistance == speccross.NoConflict {
		t.Fatal("profiler should observe the A[i] self-dependences")
	}
	if res.Profile.MinDistance >= 8 {
		t.Fatalf("distance = %d; the 6-task epochs must sit below the 8-worker threshold", res.Profile.MinDistance)
	}
	if res.Stats.Tasks != 0 {
		t.Fatalf("speculative tasks = %d, want 0 (barrier fallback)", res.Stats.Tasks)
	}
}
