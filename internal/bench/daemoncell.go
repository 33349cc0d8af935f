package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"crossinv/internal/daemon"
)

// daemonProgram is the invocation-latency probe: the CG loop nest of
// Fig 3.1 (same shape as examples/compiler/cg.lnl), embedded so the bench
// harness has no working-directory dependency. Small enough that the
// pipeline — parse, analyze, oracle, §4.4 profile — dominates execution,
// which is exactly the cost the plan cache amortizes.
const daemonProgram = `
func cg() {
  var S[40], E[40], C[120], IDX[400]

  parfor p = 0 .. 40 {
    S[p] = p * 9 % 300
  }
  parfor q = 0 .. 40 {
    E[q] = S[q] % 300 + 9
  }
  parfor z = 0 .. 400 {
    IDX[z] = z * 17 % 120
  }

  for i = 0 .. 40 {
    start = S[i] % 391
    end = start + 9
    parfor j = start .. end {
      C[IDX[j]] = C[IDX[j]] * 3 + j + 1
    }
  }
}
`

// daemonSpecs builds the cold/warm/hot invocation-latency cells that track
// the plan cache's amortization gains in the BENCH_<n>.json trajectory:
//
//	daemon/invoke.cold — fresh process state AND empty cache: full
//	  pipeline (compile, oracle, profile) plus execution;
//	daemon/invoke.warm — fresh process state, populated on-disk cache:
//	  recompile but replay the cached oracle and §4.4 profile;
//	daemon/invoke.hot  — long-lived server: in-memory program cache,
//	  zero analysis spans, pure execution (requested fresh, or the
//	  repeat would be answered from the result cache);
//	daemon/invoke.memo — the same repeat as a client sends it: answered
//	  from the verified result in memory, no engine.
//
// cold/warm is the ISSUE acceptance ratio (warm p50 ≥2× better than
// cold); hot is the engines' steady state on a running daemon and memo
// what a client repeating a request actually sees. All setup and teardown
// happens in prepare/cleanup, outside the timed closures.
func daemonSpecs(opts Options) []cellSpec {
	invoke := func(s *daemon.Server, wantCache string, fresh, wantMemo bool) {
		resp, status := s.Execute(&daemon.RunRequest{
			Source: daemonProgram, Mode: "speccross", Workers: opts.Workers, Fresh: fresh,
		})
		if status != 200 {
			panic(fmt.Sprintf("bench daemon cell: status %d: %s", status, resp.Error))
		}
		if resp.Cache != wantCache || resp.Memo != wantMemo {
			panic(fmt.Sprintf("bench daemon cell: cache %q memo %v, want %q %v", resp.Cache, resp.Memo, wantCache, wantMemo))
		}
	}
	// run always executes: every cell but invoke.memo times the engines.
	run := func(s *daemon.Server, wantCache string) { invoke(s, wantCache, true, false) }
	newServer := func(dir string) *daemon.Server {
		s, err := daemon.New(daemon.Config{CacheDir: dir, DefaultWorkers: opts.Workers})
		if err != nil {
			panic(fmt.Sprintf("bench daemon cell: %v", err))
		}
		return s
	}
	scratch := func() string {
		dir, err := os.MkdirTemp("", "crossinv-bench-plancache-")
		if err != nil {
			panic(fmt.Sprintf("bench daemon cell: %v", err))
		}
		return dir
	}

	var specs []cellSpec

	// Cold: every sample gets a fresh server and a fresh cache directory,
	// so each timed run pays the full pipeline.
	{
		var roots []string
		specs = append(specs, cellSpec{
			id: "daemon/invoke.cold", engine: "daemon", workload: "invoke.cold",
			prepare: func() func() {
				root := scratch()
				roots = append(roots, root)
				s := newServer(filepath.Join(root, "cache"))
				return func() { run(s, "cold") }
			},
			cleanup: func() {
				for _, r := range roots {
					os.RemoveAll(r)
				}
			},
		})
	}

	// Warm: one directory populated once (untimed); every sample gets a
	// fresh server over it — empty memory, warm disk.
	{
		var root string
		specs = append(specs, cellSpec{
			id: "daemon/invoke.warm", engine: "daemon", workload: "invoke.warm",
			prepare: func() func() {
				if root == "" {
					root = scratch()
					run(newServer(filepath.Join(root, "cache")), "cold")
				}
				s := newServer(filepath.Join(root, "cache"))
				return func() { run(s, "warm") }
			},
			cleanup: func() {
				if root != "" {
					os.RemoveAll(root)
				}
			},
		})
	}

	// Hot and memo: one long-lived server each; the first prepare runs it
	// cold and then once the timed way (untimed), so every timed sample is
	// the established path. Hot asks for a fresh execution — the in-memory
	// program, zero analysis spans, the engines — and memo asks the way a
	// client does and is answered from the verified result.
	for _, v := range []struct {
		name  string
		fresh bool
	}{
		{"invoke.hot", true},
		{"invoke.memo", false},
	} {
		v := v
		var (
			root string
			s    *daemon.Server
		)
		specs = append(specs, cellSpec{
			id: "daemon/" + v.name, engine: "daemon", workload: v.name,
			prepare: func() func() {
				if s == nil {
					root = scratch()
					s = newServer(filepath.Join(root, "cache"))
					invoke(s, "cold", v.fresh, false)
					invoke(s, "hot", v.fresh, !v.fresh)
				}
				return func() { invoke(s, "hot", v.fresh, !v.fresh) }
			},
			cleanup: func() {
				if root != "" {
					os.RemoveAll(root)
				}
			},
		})
	}

	return specs
}
