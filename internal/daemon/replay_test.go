package daemon

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"crossinv/internal/plancache"
)

// TestPlansFromBeforeSlotExecutorReplay: testdata/plans-pr11/cache holds
// plan-cache entries written by the last build whose executor was the
// name-keyed tree walker, for the programs beside it. A server of this build
// must adopt them as they are — no schema or pipeline-version bump, so no
// fleet-wide cold start — and every engine must reproduce the sequential
// checksum those entries recorded. That only holds while Env.Checksum stays
// bit-identical across executors.
func TestPlansFromBeforeSlotExecutorReplay(t *testing.T) {
	dir, programs := plansPR11(t)
	s := newServer(t, Config{CacheDir: dir})
	for _, file := range programs {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(file)
		resp, status := s.Execute(&RunRequest{Source: string(raw), Mode: "speccross", Workers: 4})
		if status != 200 {
			t.Fatalf("%s: %d %s", name, status, resp.Error)
		}
		if resp.Cache != "warm" {
			t.Errorf("%s: first run classified %q, want warm (the recorded plan was not adopted)", name, resp.Cache)
		}
		for _, mode := range allModes {
			resp, status := s.Execute(&RunRequest{Source: string(raw), Mode: mode, Workers: 4})
			if status != 200 && status != 422 {
				t.Errorf("%s/%s: %d %s", name, mode, status, resp.Error)
			}
		}
	}
	c := s.Counters()
	if c["daemon.span.oracle"] != 0 || c["daemon.span.profile"] != 0 {
		t.Errorf("replay ran %d oracle / %d profile spans, want 0/0 (cached values must be trusted)",
			c["daemon.span.oracle"], c["daemon.span.profile"])
	}
	if c["plancache.corrupt"] != 0 || c["plancache.hit"] != int64(len(programs)) {
		t.Errorf("plan cache: %d hits, %d corrupt, want %d/0", c["plancache.hit"], c["plancache.corrupt"], len(programs))
	}
}

// plansPR11 copies the testdata/plans-pr11 cache into a fresh directory and
// returns it with the paths of the programs the cache was written for.
func plansPR11(t *testing.T) (dir string, programs []string) {
	t.Helper()
	src := filepath.Join("testdata", "plans-pr11")
	dir = t.TempDir()
	err := filepath.WalkDir(filepath.Join(src, "cache"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(filepath.Join(src, "cache"), path)
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	programs, err = filepath.Glob(filepath.Join(src, "programs", "*.lnl"))
	if err != nil || len(programs) == 0 {
		t.Fatalf("no recorded programs (%v)", err)
	}
	return dir, programs
}

// TestDomoreShardedIsDomore: "domore-sharded", the mode of a DOMORE
// scheduler since folded into DOMORE's, is still accepted — in a request,
// where it runs DOMORE, and in a cached plan that recorded it as the
// engine choice, which is still adopted warm.
func TestDomoreShardedIsDomore(t *testing.T) {
	dir, programs := plansPR11(t)
	// Rewrite every recorded engine choice under the old name.
	st, err := plancache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var e plancache.Entry
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		e.Plan.Engine = "domore-sharded"
		if e.Plan.Adaptive != nil {
			e.Plan.Adaptive.Start = "domore-sharded"
		}
		if err := st.Put(plancache.Key{SourceHash: e.SourceHash, Fingerprint: e.Fingerprint}, e.Plan); err != nil {
			t.Fatal(err)
		}
	}

	s := newServer(t, Config{CacheDir: dir})
	for _, file := range programs {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		name, src := filepath.Base(file), string(raw)
		old, status := s.Execute(&RunRequest{Source: src, Mode: "domore-sharded", Workers: 4})
		if status != 200 || old.Engine != "domore" {
			t.Fatalf("%s: domore-sharded request: %d %q, engine %q; want 200 from domore", name, status, old.Error, old.Engine)
		}
		if old.Cache != "warm" {
			t.Errorf("%s: classified %q, want warm (the plan recorded under the old name was not adopted)", name, old.Cache)
		}
		cur, status := s.Execute(&RunRequest{Source: src, Mode: "domore", Workers: 4, Fresh: true})
		if status != 200 || cur.Checksum != old.Checksum || old.Checksum != old.SeqChecksum {
			t.Errorf("%s: domore %d checksum %x, domore-sharded %x, sequential %x", name, status, cur.Checksum, old.Checksum, old.SeqChecksum)
		}
	}
	if c := s.Counters(); c["plancache.corrupt"] != 0 || c["plancache.hit"] != int64(len(programs)) {
		t.Errorf("plan cache: %d hits, %d corrupt, want %d/0", c["plancache.hit"], c["plancache.corrupt"], len(programs))
	}
}
