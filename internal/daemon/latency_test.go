package daemon

import "testing"

// TestRestartReplaysPlansWarm drives the cold path (full pipeline) and the
// warm path (daemon restart over a populated plan cache — recompiles, but
// replays the oracle checksum and §4.4 profile) over the examples corpus.
// Requests are Fresh: both sides run the pipeline and the engines, never an
// answer from the result cache. Each run must be a verified 200, classified
// cold on the first server and warm on the restarted one ("warm" is a disk
// hit that ran neither the oracle nor the profile). daemon.cold-churn in
// benchmark/ measures what the warm path saves.
func TestRestartReplaysPlansWarm(t *testing.T) {
	examples := map[string]string{}
	for name, src := range corpus(t) {
		if name == "cg.lnl" || name == "stencil.lnl" {
			examples[name] = src
		}
	}
	if len(examples) != 2 {
		t.Fatalf("examples corpus incomplete: %v", examples)
	}

	dir := t.TempDir()
	for _, want := range []string{"cold", "warm"} {
		s, err := New(Config{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range examples {
			resp, status := s.Execute(&RunRequest{Source: src, Mode: "speccross", Workers: 4, Fresh: true})
			if status != 200 {
				t.Fatalf("%s %s: %d %s", name, want, status, resp.Error)
			}
			if resp.Cache != want {
				t.Fatalf("%s classified %q, want %q", name, resp.Cache, want)
			}
		}
		if err := s.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
}
