package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crossinv/internal/transform/speccrossgen"
)

// TestViewComputeAddrMatchesMTCG: domore and adaptive predict a region's
// addresses with the same §3.3.4 slices. On every region of every program
// the repository ships (each has both a DOMORE plan and an epoch/task
// form), the adaptive DOMORE view's ComputeAddr(inv, iter)
// equals the MTCG scheduler's after Sequential(inv), for every invocation
// and iteration.
func TestViewComputeAddrMatchesMTCG(t *testing.T) {
	progs := map[string]string{"frameSrc": frameSrc}
	for _, dir := range []string{"testdata", "../../examples/compiler", "../../cmd/crossinv/testdata"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.lnl"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			progs[file] = string(src)
		}
	}
	compared := 0
	for file, src := range progs {
		c, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for idx, region := range c.Regions {
			par, err := c.PlanDOMORE(region)
			if err != nil {
				t.Fatalf("%s region %d: %v", file, idx, err)
			}
			schedEnv, _, err := c.runOutside(region)
			if err != nil {
				t.Fatalf("%s region %d: %v", file, idx, err)
			}
			w, err := par.Bind(schedEnv, 1)
			if err != nil {
				t.Fatalf("%s region %d: %v", file, idx, err)
			}
			viewEnv, _, err := c.runOutside(region)
			if err != nil {
				t.Fatalf("%s region %d: %v", file, idx, err)
			}
			r, err := speccrossgen.New(c.Prog, c.Dep, region, viewEnv, 1)
			if err != nil {
				t.Fatalf("%s region %d: %v", file, idx, err)
			}
			v, err := speccrossgen.NewDomoreView(r, par.Slices)
			if err != nil {
				t.Fatalf("%s region %d: %v", file, idx, err)
			}
			if w.Invocations() != v.Invocations() {
				t.Fatalf("%s region %d: %d invocations, view %d", file, idx, w.Invocations(), v.Invocations())
			}
			for inv := 0; inv < w.Invocations(); inv++ {
				w.Sequential(inv)
				if w.Iterations(inv) != v.Iterations(inv) {
					t.Fatalf("%s region %d inv %d: %d iterations, view %d", file, idx, inv, w.Iterations(inv), v.Iterations(inv))
				}
				for iter := 0; iter < w.Iterations(inv); iter++ {
					want := w.ComputeAddr(inv, iter, nil)
					if got := v.ComputeAddr(inv, iter, nil); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s region %d: ComputeAddr(%d, %d) = %v, mtcg %v", file, idx, inv, iter, got, want)
					}
				}
			}
			if err := w.Finish(); err != nil {
				t.Fatalf("%s region %d: %v", file, idx, err)
			}
			compared++
		}
	}
	if compared < len(progs) {
		t.Fatalf("compared %d regions in %d programs", compared, len(progs))
	}
}

// frameSrc's addresses depend on the outer induction variable and on a
// scalar the sequential code computes, so they are right only when each
// epoch's scalar frame is installed; the shipped programs' addresses
// depend on the inner induction variable alone.
const frameSrc = `
func main() {
  var A[64], IDX[40]
  parfor z = 0 .. 40 { IDX[z] = z * 7 % 40 }
  for t = 0 .. 6 {
    k = t * 3 + 1
    parfor i = 0 .. 8 { A[IDX[t*5 + i] + k] = A[IDX[t*5 + i] + k] + i }
  }
}
`
