package daemon

import (
	"sort"
	"testing"
	"time"
)

// TestWarmBeatsColdLatency drives the cold path (full pipeline) and the
// warm path (daemon restart over a populated plan cache — recompiles, but
// replays the oracle checksum and §4.4 profile) over the examples corpus.
// Requests are Fresh: both sides run the pipeline and the engines, never an
// answer from the result cache. What it asserts repeats on every host: each
// run is a verified 200, classified cold or warm ("warm" is a disk hit that
// ran neither the oracle nor the profile). The latency ratio (expected ≥ 2×)
// is logged, not asserted: six wall-clock samples inside a parallel
// `go test` do not resolve it (ROADMAP item 1); daemon.cold-churn in
// benchmark/ measures the two paths.
func TestWarmBeatsColdLatency(t *testing.T) {
	examples := map[string]string{}
	for name, src := range corpus(t) {
		if name == "cg.lnl" || name == "stencil.lnl" {
			examples[name] = src
		}
	}
	if len(examples) != 2 {
		t.Fatalf("examples corpus incomplete: %v", examples)
	}

	var coldNs, warmNs []int64
	const rounds = 3
	for r := 0; r < rounds; r++ {
		dir := t.TempDir()
		cold, err := New(Config{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range examples {
			start := time.Now()
			resp, status := cold.Execute(&RunRequest{Source: src, Mode: "speccross", Workers: 4, Fresh: true})
			if status != 200 {
				t.Fatalf("%s cold: %d %s", name, status, resp.Error)
			}
			if resp.Cache != "cold" {
				t.Fatalf("%s first run classified %q", name, resp.Cache)
			}
			coldNs = append(coldNs, time.Since(start).Nanoseconds())
		}
		if err := cold.Shutdown(); err != nil {
			t.Fatal(err)
		}

		warm, err := New(Config{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range examples {
			start := time.Now()
			resp, status := warm.Execute(&RunRequest{Source: src, Mode: "speccross", Workers: 4, Fresh: true})
			if status != 200 {
				t.Fatalf("%s warm: %d %s", name, status, resp.Error)
			}
			if resp.Cache != "warm" {
				t.Fatalf("%s restart run classified %q", name, resp.Cache)
			}
			warmNs = append(warmNs, time.Since(start).Nanoseconds())
		}
		if err := warm.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}

	cp50, wp50 := median(coldNs), median(warmNs)
	t.Logf("cold p50 %v / warm p50 %v = %.1fx", time.Duration(cp50), time.Duration(wp50), float64(cp50)/float64(wp50))
}

func median(ns []int64) int64 {
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
