// Package plancache is the content-addressed, on-disk plan/profile store
// that amortizes the crossinv pipeline across invocations — the paper's
// premise applied to the compiler itself. Entries are keyed by the
// program-source hash plus a pipeline/config fingerprint and hold only
// serializable plan artifacts: analysis facts, the sequential oracle
// checksum, the §4.4 conflict profile, and a bench-informed engine choice. The live IR and transforms are rebuilt by
// the owner (they hold pointers); everything expensive to *discover* is
// persisted here.
//
// Robustness contract: a torn, truncated, hash-mismatched, or
// wrong-schema entry is a MISS, never an error — the caller recomputes
// and overwrites. Writes are atomic (temp file + rename in the same
// directory). The Counters map exposes hit/miss/corrupt/put totals for
// the daemon's /metrics surface; "corrupt" is the `plancache.corrupt`
// metric the regression tests pin.
package plancache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Schema identifies the entry format. Bump on breaking changes: entries
// from other schemas are treated as corrupt (a miss), so an upgraded
// daemon silently recomputes rather than misreading old data.
const Schema = "crossinv-plancache/v1"

// Key addresses one entry: the content hash of the program source plus a
// fingerprint of everything else the cached artifacts depend on (pipeline
// version, region index, signature kind, and the cross-invocation facts
// hash — the engine/config/analysis axis).
type Key struct {
	// SourceHash is the hex SHA-256 of the program source text.
	SourceHash string
	// Fingerprint folds the non-source inputs, e.g.
	// "pipeline/v1|region=2|sig=range|xdep=ab12…".
	Fingerprint string
}

// Fingerprint builds the canonical fingerprint string from its parts.
// xdep is the content hash of the static cross-invocation facts
// (xdep.Facts.Hash(), or a fixed token like "none" for workloads without
// static analysis): folding it into the key means a plan derived under one
// dependence verdict can never be replayed against source whose subscripts
// — and hence whose proven dependences — changed.
func Fingerprint(pipeline string, region int, sig, xdep string) string {
	return fmt.Sprintf("%s|region=%d|sig=%s|xdep=%s", pipeline, region, sig, xdep)
}

// ID is the entry's content address: the hex SHA-256 of the key pair.
// It names the file on disk, so distinct configs of one program coexist.
func (k Key) ID() string {
	h := sha256.New()
	h.Write([]byte(k.SourceHash))
	h.Write([]byte{0})
	h.Write([]byte(k.Fingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// Profile is the serializable §4.4 profiling result (mirrors
// speccross.ProfileResult field for field; this package stays free of
// runtime imports so stores can be linked anywhere).
type Profile struct {
	Tasks       int64            `json:"tasks"`
	Epochs      int64            `json:"epochs"`
	Conflicts   int64            `json:"conflicts"`
	MinDistance int64            `json:"min_distance"`
	PerLoop     map[string]int64 `json:"per_loop,omitempty"`
}

// AdaptiveSeed is an adaptive start engine and window. Nothing reads it:
// a request's window is what it asks for, or the adaptive default. It is
// kept because the repository benchmark (benchmark/daemon.go) constructs
// one.
type AdaptiveSeed struct {
	Start  string `json:"start"`
	Window int    `json:"window,omitempty"`
}

// RegionFacts mirrors core.RegionFacts (see that type for field docs).
type RegionFacts struct {
	Var             string   `json:"var"`
	Pos             string   `json:"pos"`
	AdvisorPlan     string   `json:"advisor_plan"`
	InnerClasses    []string `json:"inner_classes,omitempty"`
	CrossInvDeps    int      `json:"cross_inv_deps"`
	XDepClass       string   `json:"xdep_class,omitempty"`
	XDepMinDistance int64    `json:"xdep_min_distance,omitempty"`
	XDepMaxDistance int64    `json:"xdep_max_distance,omitempty"`
}

// Plan is the cached payload: every pipeline artifact that is a pure
// function of (source, fingerprint) and serializable.
type Plan struct {
	// SeqChecksum is the sequential oracle checksum — programs are
	// deterministic, so warm invocations verify against it without
	// re-running the sequential executor.
	SeqChecksum uint64 `json:"seq_checksum"`
	// Regions is the candidate-region count and RegionIndex the region
	// these artifacts were derived for.
	Regions     int `json:"regions"`
	RegionIndex int `json:"region_index"`
	// Facts is the serializable dependence-analysis record per region.
	Facts []RegionFacts `json:"facts,omitempty"`
	// Profile is the cached §4.4 conflict profile (nil when the region
	// was never profiled).
	Profile *Profile `json:"profile,omitempty"`
	// Adaptive is unused; see AdaptiveSeed.
	Adaptive *AdaptiveSeed `json:"adaptive,omitempty"`
	// Engine records the bench-informed engine choice for this program
	// ("" when no bench history exists).
	Engine string `json:"engine,omitempty"`
	// XDepHash is the content hash of the static cross-invocation facts
	// the plan was derived under. It echoes the fingerprint's xdep part so
	// an adopter can re-verify the stored verdict against a fresh
	// analyzer run before trusting the plan.
	XDepHash string `json:"xdep_hash,omitempty"`
	// LintClean records that the plan verifier passed when the entry was
	// written; loaders re-verify regardless (verify-on-load), this flag
	// just lets /plans report entries that were stored despite warnings.
	LintClean bool `json:"lint_clean"`
}

// Entry is the on-disk document: schema header, key echo, payload, and
// the payload integrity hash.
type Entry struct {
	Schema      string `json:"schema"`
	SourceHash  string `json:"source_hash"`
	Fingerprint string `json:"fingerprint"`
	CreatedAt   string `json:"created_at"`
	Plan        Plan   `json:"plan"`
	// PlanSHA256 is the hex SHA-256 of the canonical (compact) JSON
	// encoding of Plan; Get recomputes and compares it, so a torn or
	// bit-flipped payload reads as corrupt, not as a wrong plan.
	PlanSHA256 string `json:"plan_sha256"`
}

// Info is one /plans listing row.
type Info struct {
	ID          string `json:"id"`
	SourceHash  string `json:"source_hash"`
	Fingerprint string `json:"fingerprint"`
	CreatedAt   string `json:"created_at"`
	Engine      string `json:"engine,omitempty"`
	Profiled    bool   `json:"profiled"`
}

// Store is the on-disk cache. All methods are safe for concurrent use.
type Store struct {
	dir string

	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64
	puts    atomic.Int64

	// writeMu serializes Put per process; cross-process safety comes from
	// the atomic rename (last writer wins, both plans being equally valid
	// recomputations of the same pure function).
	writeMu sync.Mutex
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("plancache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(id string) string {
	return filepath.Join(s.dir, id[:2], id+".json")
}

func planHash(p Plan) (string, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(raw)
	return hex.EncodeToString(h[:]), nil
}

// Get loads the entry for key. ok is false on any miss — absent entry or
// any form of corruption (unparseable JSON, wrong schema, key mismatch,
// integrity-hash mismatch). Corruption additionally increments the
// corrupt counter and removes the bad file so the next Put starts clean;
// it NEVER fails the request.
func (s *Store) Get(key Key) (Plan, bool) {
	id := key.ID()
	raw, err := os.ReadFile(s.path(id))
	if err != nil {
		s.misses.Add(1)
		return Plan{}, false
	}
	var e Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return s.quarantine(id) // torn or truncated write
	}
	if e.Schema != Schema {
		return s.quarantine(id)
	}
	if e.SourceHash != key.SourceHash || e.Fingerprint != key.Fingerprint {
		return s.quarantine(id) // ID collision or tampered key echo
	}
	want, err := planHash(e.Plan)
	if err != nil || want != e.PlanSHA256 {
		return s.quarantine(id) // payload bit-rot
	}
	s.hits.Add(1)
	return e.Plan, true
}

// quarantine records a corrupt entry as a miss and deletes the file.
func (s *Store) quarantine(id string) (Plan, bool) {
	s.corrupt.Add(1)
	s.misses.Add(1)
	_ = os.Remove(s.path(id))
	return Plan{}, false
}

// Put writes (or atomically replaces) the entry for key.
func (s *Store) Put(key Key, p Plan) error {
	sum, err := planHash(p)
	if err != nil {
		return fmt.Errorf("plancache: encode plan: %w", err)
	}
	e := Entry{
		Schema:      Schema,
		SourceHash:  key.SourceHash,
		Fingerprint: key.Fingerprint,
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		Plan:        p,
		PlanSHA256:  sum,
	}
	raw, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return fmt.Errorf("plancache: %w", err)
	}
	raw = append(raw, '\n')

	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	dst := s.path(key.ID())
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("plancache: %w", err)
	}
	// Atomic publish: a reader sees the old entry or the new one, never a
	// prefix. The temp file lives in the destination directory so the
	// rename cannot cross filesystems.
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".tmp-"+key.ID()[:8]+"-*")
	if err != nil {
		return fmt.Errorf("plancache: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("plancache: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("plancache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("plancache: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("plancache: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// List enumerates every readable entry, sorted by ID. Corrupt files are
// skipped (and counted) — listing is diagnostic, it must not fail because
// one entry rotted.
func (s *Store) List() []Info {
	var out []Info
	subdirs, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	for _, sd := range subdirs {
		if !sd.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sd.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if filepath.Ext(name) != ".json" {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(s.dir, sd.Name(), name))
			if err != nil {
				continue
			}
			var e Entry
			if err := json.Unmarshal(raw, &e); err != nil || e.Schema != Schema {
				s.corrupt.Add(1)
				continue
			}
			out = append(out, Info{
				ID:          name[:len(name)-len(".json")],
				SourceHash:  e.SourceHash,
				Fingerprint: e.Fingerprint,
				CreatedAt:   e.CreatedAt,
				Engine:      e.Plan.Engine,
				Profiled:    e.Plan.Profile != nil,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Counters snapshots the store metrics. Keys are the metric names the
// daemon exports: plancache.hit, plancache.miss, plancache.corrupt,
// plancache.put.
func (s *Store) Counters() map[string]int64 {
	return map[string]int64{
		"plancache.hit":     s.hits.Load(),
		"plancache.miss":    s.misses.Load(),
		"plancache.corrupt": s.corrupt.Load(),
		"plancache.put":     s.puts.Load(),
	}
}

// Flush persists the store's counter snapshot as a stats sidecar (best
// effort, atomic like entries). The daemon calls it during graceful drain
// so hit/miss history survives restarts for /plans consumers.
func (s *Store) Flush() error {
	raw, err := json.MarshalIndent(s.Counters(), "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	tmp, err := os.CreateTemp(s.dir, ".tmp-stats-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(s.dir, "stats.json"))
}
