package workloadtest

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"crossinv/internal/plancache"
	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
)

// cacheProfile and uncacheProfile are the serialization boundary between a
// live §4.4 profile and its plancache form. They mirror the daemon's
// converters (internal/daemon keeps its own copy so plancache stays free
// of runtime imports); this harness proves the round-trip is lossless for
// every workload's profile shape, including per-loop distance maps.
func cacheProfile(pr *speccross.ProfileResult) *plancache.Profile {
	p := &plancache.Profile{
		Tasks:       pr.Tasks,
		Epochs:      pr.Epochs,
		Conflicts:   pr.Conflicts,
		MinDistance: pr.MinDistance,
	}
	if len(pr.PerLoop) > 0 {
		p.PerLoop = make(map[string]int64, len(pr.PerLoop))
		for k, v := range pr.PerLoop {
			p.PerLoop[k] = v
		}
	}
	return p
}

func uncacheProfile(p *plancache.Profile) *speccross.ProfileResult {
	pr := &speccross.ProfileResult{
		Tasks:       p.Tasks,
		Epochs:      p.Epochs,
		Conflicts:   p.Conflicts,
		MinDistance: p.MinDistance,
		PerLoop:     map[string]int64{},
	}
	for k, v := range p.PerLoop {
		pr.PerLoop[k] = v
	}
	return pr
}

// CachedPlanMatchesCold is the warm-path equivalence harness: it profiles
// the named benchmark once (the cold invocation), persists the profile and
// oracle checksum through a real on-disk plancache store, reloads them,
// and re-runs every applicable engine configured ONLY from the cached
// plan — no re-profiling. Each engine's checksum must equal both the
// sequential oracle and the cached SeqChecksum, so a daemon serving this
// workload warm is provably equivalent to serving it cold.
func CachedPlanMatchesCold(t *testing.T, store *plancache.Store, name string) {
	t.Helper()
	e, err := workloads.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	golden := Make(e)
	golden.RunSequential()
	want := golden.Checksum()

	kind := signature.Range
	if e.Exact {
		kind = signature.Exact
	}

	// Go workloads have no source text; the content address is the
	// registry identity at the shrunken scale, fingerprinted like the
	// daemon fingerprints LNL programs.
	h := sha256.Sum256([]byte("workload:" + name + "|scale=1"))
	key := plancache.Key{
		SourceHash: hex.EncodeToString(h[:]),
		// Go workloads carry no static xdep report; the fixed token keys
		// them apart from any real facts hash.
		Fingerprint: plancache.Fingerprint("workloads/v1", 0, kind.String(), "unanalyzed"),
	}

	// Cold half: first lookup must miss, then profile and publish.
	if _, ok := store.Get(key); ok {
		t.Fatalf("%s: unexpected cache hit before the cold run", name)
	}
	pr := speccross.Profile(Make(e).(speccross.Workload), kind, 8)
	dist, profitable := pr.Recommended(4)
	engine := "domore"
	if profitable {
		engine = "speccross"
	}
	if err := store.Put(key, plancache.Plan{
		SeqChecksum: want,
		Regions:     1,
		Profile:     cacheProfile(&pr),
		Engine:      engine,
		LintClean:   true,
	}); err != nil {
		t.Fatal(err)
	}

	// Warm half: reload and reconstruct. The round-trip must be lossless —
	// a drifted distance would silently change speculation bounds.
	plan, ok := store.Get(key)
	if !ok {
		t.Fatalf("%s: plan written but not readable", name)
	}
	if plan.SeqChecksum != want {
		t.Fatalf("%s: cached oracle %x != sequential %x", name, plan.SeqChecksum, want)
	}
	cached := uncacheProfile(plan.Profile)
	if got, want := *cached, pr; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: profile round-trip drifted: %+v != %+v", name, got, want)
	}

	check := func(t *testing.T, inst workloads.Instance, engine string) {
		t.Helper()
		if got := inst.Checksum(); got != want {
			t.Fatalf("%s from cached plan: checksum %x != sequential %x", engine, got, want)
		}
	}

	if e.SpecOK {
		t.Run("barrier", func(t *testing.T) {
			inst := Make(e)
			speccross.RunBarriers(inst.(speccross.Workload), 4)
			check(t, inst, "barrier")
		})
		t.Run("speccross", func(t *testing.T) {
			inst := Make(e)
			sw := inst.(speccross.Workload)
			cdist, cprofitable := cached.Recommended(4)
			if cprofitable != profitable || cdist != dist {
				t.Fatalf("cached recommendation (%d,%v) != cold (%d,%v)",
					cdist, cprofitable, dist, profitable)
			}
			if cprofitable {
				stats := speccross.RunParallel(sw, speccross.Config{
					Workers: 4, CheckpointEvery: 200, SigKind: kind, SpecDistance: cdist,
				})
				if stats.Misspeculations != 0 {
					t.Errorf("misspeculations = %d with cached gating, want 0", stats.Misspeculations)
				}
			} else {
				speccross.RunBarriers(sw, 4)
			}
			check(t, inst, "speccross")
		})
	}
	if e.DomoreOK {
		t.Run("domore", func(t *testing.T) {
			inst := Make(e)
			stats := domore.Run(inst.(domore.Workload), domore.Options{Workers: 4})
			if stats.Iterations == 0 {
				t.Fatal("no iterations scheduled")
			}
			check(t, inst, "domore")
		})
	}
	if e.DomoreOK && e.SpecOK {
		t.Run("adaptive", func(t *testing.T) {
			inst := Make(e)
			cfg := adaptive.Config{Workers: 4}
			cfg.Spec.SigKind = kind
			// The daemon's warm path: policy state seeded from the cached
			// distance instead of a fresh profiling pass.
			cfg.SeedFromProfile(cached.MinDistance, 4)
			stats := adaptive.Run(inst.(adaptive.Workload), cfg)
			if stats.Windows == 0 {
				t.Fatal("no windows executed")
			}
			check(t, inst, "adaptive")
		})
	}
}
