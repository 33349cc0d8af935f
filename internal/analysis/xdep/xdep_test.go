package xdep_test

import (
	"testing"

	"crossinv/internal/analysis/xdep"
	"crossinv/internal/core"
)

// analyze compiles src and runs the cross-invocation analyzer over its
// candidate regions.
func analyze(t *testing.T, src string) *xdep.Facts {
	t.Helper()
	c, err := core.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return xdep.Analyze(c.Prog, c.Dep, c.Regions)
}

const pipeSrc = `
func pipe() {
  var A[520]
  parfor s = 0 .. 520 {
    A[s] = s * 5 % 11
  }
  for t = 1 .. 64 {
    parfor i = 0 .. 8 {
      A[t*8 + i] = A[t*8 + i - 8] * 3 + 1
    }
  }
}
`

func TestForwardOnlyDistance(t *testing.T) {
	f := analyze(t, pipeSrc)
	if len(f.Regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(f.Regions))
	}
	r := f.Regions[0]
	if r.Class != "forward-only" {
		t.Fatalf("class = %s, want forward-only\nevidence: %+v", r.Class, r.Evidence)
	}
	if r.MinDistance != 1 || r.MaxDistance != 1 {
		t.Errorf("distance bounds [%d, %d], want [1, 1]", r.MinDistance, r.MaxDistance)
	}
	// The self WAW pair (each invocation writes a fresh 8-element block)
	// must be disproven by the Banerjee range reduction.
	var sawNone bool
	for _, e := range r.Evidence {
		if e.Class == "none" && e.Test == "banerjee" {
			sawNone = true
		}
	}
	if !sawNone {
		t.Errorf("no banerjee-disproven pair in evidence: %+v", r.Evidence)
	}
	// Every forward evidence row carries a region-level "<" vector entry.
	for _, e := range r.Evidence {
		if e.Class != "forward-only" {
			continue
		}
		if len(e.Vector) == 0 || e.Vector[0].Dir != "<" || !e.Vector[0].HasDistance {
			t.Errorf("forward pair %s has vector %+v, want leading <1 entry", e.Array, e.Vector)
		}
	}
}

func TestDisjointBlocksAreNone(t *testing.T) {
	f := analyze(t, `
func disjoint() {
  var A[512]
  for t = 0 .. 64 {
    parfor i = 0 .. 8 {
      A[t*8 + i] = t + i
    }
  }
}
`)
	if got := f.Regions[0].Class; got != "none" {
		t.Errorf("class = %s, want none (per-invocation blocks never revisit)\nevidence: %+v",
			got, f.Regions[0].Evidence)
	}
}

func TestGCDDisproof(t *testing.T) {
	f := analyze(t, `
func gcddis() {
  var A[600]
  for t = 0 .. 32 {
    parfor i = 0 .. 1 {
      A[t*4 + 1] = A[t*2] + 1
    }
  }
}
`)
	r := f.Regions[0]
	if r.Class != "none" {
		t.Fatalf("class = %s, want none (odd stores never meet even loads)\nevidence: %+v", r.Class, r.Evidence)
	}
	var sawGCD bool
	for _, e := range r.Evidence {
		if e.Test == "gcd" && e.Class == "none" {
			sawGCD = true
		}
	}
	if !sawGCD {
		t.Errorf("no gcd disproof in evidence: %+v", r.Evidence)
	}
}

func TestGCDRecurrenceIsCyclic(t *testing.T) {
	f := analyze(t, `
func gcdrec() {
  var A[600]
  for t = 0 .. 32 {
    parfor i = 0 .. 1 {
      A[t*4] = A[t*2] + 1
    }
  }
}
`)
	if got := f.Regions[0].Class; got != "cyclic" {
		t.Errorf("class = %s, want cyclic (strides share every 4th element, unbounded distance)", got)
	}
}

func TestRewrittenLocationIsCyclic(t *testing.T) {
	// Stencil shape: every invocation rewrites the whole array, so WAW
	// recurrences exist at every invocation distance.
	f := analyze(t, `
func stencilish() {
  var A[64], B[65]
  for t = 0 .. 8 {
    parfor i = 0 .. 64 {
      A[i] = B[i] + t
    }
    parfor j = 1 .. 65 {
      B[j] = A[j-1] + 1
    }
  }
}
`)
	r := f.Regions[0]
	if r.Class != "cyclic" {
		t.Fatalf("class = %s, want cyclic", r.Class)
	}
	if len(r.LoopPairs) == 0 {
		t.Fatal("no (loop, loop) pair classifications")
	}
	for _, lp := range r.LoopPairs {
		if _, ok := xdep.ParseClass(lp.Class); !ok {
			t.Errorf("loop pair (%s, %s) has invalid class %q", lp.A, lp.B, lp.Class)
		}
	}
}

func TestIndirectSubscriptIsUnknown(t *testing.T) {
	f := analyze(t, `
func irregular() {
  var C[64], IDX[128]
  parfor z = 0 .. 128 {
    IDX[z] = z * 13 % 64
  }
  for t = 0 .. 16 {
    parfor j = 0 .. 8 {
      C[IDX[j]] = C[IDX[j]] + 1
    }
  }
}
`)
	r := f.Regions[0]
	if r.Class != "unknown" {
		t.Fatalf("class = %s, want unknown (index-array subscript)", r.Class)
	}
	var sawNonAffine bool
	for _, e := range r.Evidence {
		if e.Test == "non-affine" {
			sawNonAffine = true
		}
	}
	if !sawNonAffine {
		t.Errorf("no non-affine evidence: %+v", r.Evidence)
	}
}

func TestSymbolicBoundsAreUnknownNotWrong(t *testing.T) {
	// CG shape: the inner bounds come from a scalar recomputed per
	// invocation. The analyzer must refuse (unknown), not guess.
	f := analyze(t, `
func cgish() {
  var S[16], A[200]
  parfor p = 0 .. 16 {
    S[p] = p * 9 % 100
  }
  for i = 0 .. 16 {
    start = S[i] % 100
    end = start + 9
    parfor j = start .. end {
      A[j] = A[j] + 1
    }
  }
}
`)
	if got := f.Regions[0].Class; got != "unknown" {
		t.Errorf("class = %s, want unknown (symbolic inner bounds)", got)
	}
}

func TestHashTracksSubscripts(t *testing.T) {
	a := analyze(t, pipeSrc)
	b := analyze(t, pipeSrc)
	if a.Hash() != b.Hash() {
		t.Fatal("hash is not deterministic")
	}
	// A changed subscript changes the verdict's content address even when
	// the program name and shape are identical.
	c := analyze(t, `
func pipe() {
  var A[520]
  parfor s = 0 .. 520 {
    A[s] = s * 5 % 11
  }
  for t = 2 .. 64 {
    parfor i = 0 .. 8 {
      A[t*8 + i] = A[t*8 + i - 16] * 3 + 1
    }
  }
}
`)
	if a.Hash() == c.Hash() {
		t.Error("changed subscript kept the same facts hash")
	}
	if d := c.Regions[0]; d.Class != "forward-only" || d.MinDistance != 2 {
		t.Errorf("lag-2 pipe classified %s min %d, want forward-only min 2", d.Class, d.MinDistance)
	}
}

func TestParseClassRoundTrip(t *testing.T) {
	for _, c := range []xdep.Class{xdep.None, xdep.ForwardOnly, xdep.Cyclic, xdep.Unknown} {
		got, ok := xdep.ParseClass(c.String())
		if !ok || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := xdep.ParseClass("bogus"); ok {
		t.Error("ParseClass accepted a bogus class")
	}
}

func TestClassifySets(t *testing.T) {
	none := xdep.ClassifySets([]xdep.EpochAccess{
		{Writes: []uint64{0, 1}},
		{Writes: []uint64{2, 3}, Reads: []uint64{4}},
		{Writes: []uint64{5}},
	})
	if none.Class != xdep.None || none.Conflicts != 0 {
		t.Errorf("disjoint sets classified %v with %d conflicts", none.Class, none.Conflicts)
	}

	fwd := xdep.ClassifySets([]xdep.EpochAccess{
		{Writes: []uint64{7}},
		{},
		{Reads: []uint64{7}},  // RAW distance 2
		{Writes: []uint64{7}}, // WAW 3, WAR 1
		{Reads: []uint64{9}},  // no conflict
		{Writes: []uint64{9}}, // WAR distance 1
	})
	if fwd.Class != xdep.ForwardOnly {
		t.Fatalf("class = %v, want forward-only", fwd.Class)
	}
	if fwd.MinDistance != 1 || fwd.MaxDistance != 3 {
		t.Errorf("distance bounds [%d, %d], want [1, 3]", fwd.MinDistance, fwd.MaxDistance)
	}
}

func TestCorruptions(t *testing.T) {
	f := analyze(t, pipeSrc)
	if !xdep.CorruptFlipDirection(f) {
		t.Error("CorruptFlipDirection found no forward vector entry")
	}
	f = analyze(t, pipeSrc)
	n := len(f.Regions[0].Evidence)
	if !xdep.CorruptDropPair(f) || len(f.Regions[0].Evidence) != n-1 {
		t.Error("CorruptDropPair did not drop exactly one pair")
	}
	f = analyze(t, `
func rec() {
  var A[8]
  for t = 0 .. 8 {
    parfor i = 0 .. 2 {
      A[i] = A[i] + 1
    }
  }
}
`)
	if f.Regions[0].Class != "cyclic" {
		t.Fatalf("setup: class = %s, want cyclic", f.Regions[0].Class)
	}
	if !xdep.CorruptWidenCyclic(f) || f.Regions[0].Class != "none" {
		t.Error("CorruptWidenCyclic did not widen the verdict")
	}
}
