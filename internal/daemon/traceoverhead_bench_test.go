package daemon

import (
	"path/filepath"
	"testing"
)

// benchTraceOverhead times the hot engine path (in-memory program cache,
// zero analysis spans; Fresh, or the repeats would be answered from the
// result cache) with request tracing on or off, in one process:
//
//	go test ./internal/daemon/ -run '^$' -bench BenchmarkTrace
func benchTraceOverhead(b *testing.B, disable bool) {
	s, err := New(Config{
		CacheDir:       filepath.Join(b.TempDir(), "cache"),
		DefaultWorkers: 4,
		DisableTracing: disable,
	})
	if err != nil {
		b.Fatal(err)
	}
	req := &RunRequest{Source: benchProgram, Mode: "speccross", Workers: 4, Fresh: true}
	s.Execute(req) // cold: compile + analyze + fill cache
	s.Execute(req) // first hot hit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp, status := s.Execute(req); status != 200 {
			b.Fatal(resp.Error)
		}
	}
}

const benchProgram = `
func cg() {
  var S[40], E[40], C[120], IDX[400]
  parfor p = 0 .. 40 { S[p] = p * 9 % 300 }
  parfor q = 0 .. 40 { E[q] = S[q] % 300 + 9 }
  parfor z = 0 .. 400 { IDX[z] = z * 17 % 120 }
  for i = 0 .. 40 {
    start = S[i] % 391
    end = start + 9
    parfor j = start .. end {
      C[IDX[j]] = C[IDX[j]] * 3 + j + 1
    }
  }
}
`

func BenchmarkTraceOff(b *testing.B) { benchTraceOverhead(b, true) }
func BenchmarkTraceOn(b *testing.B)  { benchTraceOverhead(b, false) }
