package chaos

import (
	"fmt"
	"slices"

	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/shadow"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/workloads/epochal"
)

// Mutation names a deliberately injected engine-contract bug, applied at
// the instrumentation boundary between a workload and the engines. Each
// one models a realistic compiler/runtime defect — a ComputeAddr slice
// that misses an access, spec_access instrumentation that skips a store,
// a rollback that does not actually restore — and exists to prove the
// harness *detects* such bugs: a differential run over a mutated workload
// must fail and shrink to a replayable case.
type Mutation string

const (
	// MutNone applies no mutation.
	MutNone Mutation = ""
	// MutDropAddr makes ComputeAddr omit the first address whenever an
	// iteration has more than one, so the DOMORE scheduler misses the
	// dependences through that address and forwards no sync condition.
	MutDropAddr Mutation = "drop-addr"
	// MutDropSigWrite makes speculative tasks omit their first write from
	// the recorded signature, so the SPECCROSS checker can miss a real
	// cross-epoch conflict and commit a violated segment.
	MutDropSigWrite Mutation = "drop-sig-write"
	// MutSkipRestore turns Restore into a no-op, so misspeculation
	// recovery re-executes on top of poisoned speculative state.
	MutSkipRestore Mutation = "skip-restore"
	// MutSkipDeltaRestore turns WriteCell into a no-op: the
	// incremental-checkpoint rollback silently fails to repair the cells
	// it believes it restored. Full-snapshot restores are untouched, so
	// only the write-set delta path (and the harness's coverage of it)
	// can catch this one.
	MutSkipDeltaRestore Mutation = "skip-delta-restore"
	// MutWidenStatic corrupts the static cross-invocation claim rather
	// than the engines: the xdep-style classification of the case is
	// forced to "none" (provably conflict-free) regardless of its declared
	// access sets. The soundness gate must catch the lie by observing a
	// real cross-epoch conflict through shadow memory.
	MutWidenStatic Mutation = "widen-static"
	// MutStaleShardClaim models a sharded scheduler whose lanes claim
	// stale shard ownership: ComputeAddr's result loses every address
	// whose shard (shadow.ShardOf at the package's lane count) differs
	// from the last address's shard — exactly a cross-shard dependence
	// edge silently dropped at the shard boundary. Any scheduler that
	// trusts the surviving addresses misses the dependence and forwards no
	// sync condition, so the differential runner must observe a divergent
	// final state.
	MutStaleShardClaim Mutation = "stale-shard-claim"
	// MutStaleRuntime skips one reset between two runs that share an engine
	// runtime: the harness rewinds the workload's state for the next run
	// without telling the runtime (no Runtime.StateChanged), so the
	// incremental-checkpoint base image the previous run left there is
	// taken for current. The next misspeculation then "restores" dirty
	// cells to values from the wrong run. Only the dirty-runtime pass
	// shares a runtime between runs, so only it can catch this one.
	MutStaleRuntime Mutation = "stale-runtime"
	// MutSkipInlineShard models a sharded driver whose own detection path
	// ignores one shard. The driver keeps an invocation's partial chunk —
	// the iterations past the last multiple of the chunk size — off the
	// lanes and detects it itself, every shard in one pass; here ComputeAddr
	// loses, in exactly those iterations (at this package's shardBatch),
	// every address of the last shard (shadow.ShardOf at shardLanes, which
	// owns two of the catcher case's three contended cells). Iterations of
	// full chunks keep all their addresses, so a harness whose cases never
	// leave a partial chunk cannot catch this one.
	MutSkipInlineShard Mutation = "skip-inline-shard"
	// MutReleaseKeepsVersion models an engine pool that parks a released
	// runtime as its borrower left it — state version not advanced, the
	// last workload still on record as the checkpoint image's owner
	// (engine.Runtime.ReleaseStale). The harness rewinds the kernel between
	// two pooled runs and, unlike on a runtime of its own, has nobody to
	// tell; the next run is handed the same runtime and takes the image for
	// current, exactly as under MutStaleRuntime. Only the pooled half of the
	// dirty-runtime pass borrows from the pool twice over one kernel, so
	// only it can catch this one.
	MutReleaseKeepsVersion Mutation = "release-keeps-version"
)

// Mutations lists the non-empty mutation kinds.
func Mutations() []Mutation {
	return []Mutation{MutDropAddr, MutDropSigWrite, MutSkipRestore, MutSkipDeltaRestore, MutWidenStatic, MutStaleShardClaim, MutStaleRuntime, MutSkipInlineShard, MutReleaseKeepsVersion}
}

// ParseMutation validates a -mutate flag value.
func ParseMutation(s string) (Mutation, error) {
	m := Mutation(s)
	if m == MutNone || slices.Contains(Mutations(), m) {
		return m, nil
	}
	return MutNone, fmt.Errorf("chaos: unknown mutation %q", s)
}

// Faults is the fault plan that makes the mutation's broken path run:
// skip-restore is only reachable through a misspeculation recovery, so it
// pairs with a deterministic injected panic (plus the torn-state scribble
// the skipped restore then fails to repair). skip-delta-restore likewise
// pairs with the torn-delta fault, whose scribbled cell only a working
// delta restore repairs. The other mutations corrupt paths every run
// exercises and need no help.
func (m Mutation) Faults() FaultPlan {
	switch m {
	case MutSkipRestore:
		return FaultPlan{Panic: true, TornState: true}
	case MutSkipDeltaRestore:
		return FaultPlan{TornDelta: true}
	case MutStaleShardClaim:
		// The dropped edge diverges on its own, but skewing one scheduler
		// lane maximizes the window in which the missing sync condition
		// lets the reader overtake the writer.
		return FaultPlan{ShardSkew: true}
	case MutStaleRuntime, MutReleaseKeepsVersion:
		// Seed 0 dirties the shared runtime with a forced misspeculation,
		// whose delta restore is what reads the stale image.
		return FaultPlan{DirtyRuntime: true}
	}
	return FaultPlan{}
}

// MutationCatcher is a hand-built case on which every Mutation produces a
// near-deterministic divergence: pairs of epochs where a slow writer
// (epoch 2i, task 0: a long spin, then a store to cell 2i) is followed by
// a fast cross-epoch reader (epoch 2i+1, task 1: load cell 2i, store cell
// 2i+1). Any engine that loses the dependence — a dropped ComputeAddr
// entry, a write missing from a signature, a restore that never happens —
// lets the reader observe the pre-write value while the writer is still
// spinning, and the final state diverges from the oracle. Three pairs
// make the case span multiple SPECCROSS segments and adaptive windows at
// the defaults.
func MutationCatcher() *Spec {
	s := &Spec{
		Name:     "chaos-mutation-catcher",
		StateLen: 6,
		SigKind:  "exact",
	}
	for i := 0; i < 3; i++ {
		a := uint64(2 * i)
		s.Epochs = append(s.Epochs,
			EpochSpec{Tasks: []TaskSpec{
				{Writes: []uint64{a}, Work: 200000},
				{},
			}},
			EpochSpec{Tasks: []TaskSpec{
				{},
				{Reads: []uint64{a}, Writes: []uint64{a + 1}},
			}},
		)
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// Catcher returns the hand-built case the mutation's self-test runs on:
// MutationCatcher for the mutations that lose a dependence, and for
// MutStaleRuntime and MutReleaseKeepsVersion a case with no cross-thread
// dependence at all. A stale
// checkpoint image only exists after a run whose last segment committed,
// and MutationCatcher's segments all misspeculate; here every segment of
// the warm-up commits, so the forced misspeculation of the run after it
// restores read-modify-written cells from the wrong run's image.
func (m Mutation) Catcher() *Spec {
	if m != MutStaleRuntime && m != MutReleaseKeepsVersion {
		return MutationCatcher()
	}
	s := &Spec{Name: "chaos-runtime-catcher", StateLen: 2, SigKind: "exact"}
	for e := 0; e < 4; e++ {
		s.Epochs = append(s.Epochs, EpochSpec{Tasks: []TaskSpec{
			{Writes: []uint64{0}},
			{Writes: []uint64{1}},
		}})
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// Wrap applies the mutation to a case's kernel. MutNone returns the
// kernel unchanged, as do MutWidenStatic — it lies about the analysis,
// not the execution (RunSpec corrupts the claim before the gate) — and
// MutStaleRuntime and MutReleaseKeepsVersion, which break the harness's own
// use of a shared runtime and the pool's release of one (dirtyRun.reset,
// dirtyRun.on).
func (m Mutation) Wrap(k *epochal.Kernel) adaptive.Workload {
	if m == MutNone || m == MutWidenStatic || m == MutStaleRuntime || m == MutReleaseKeepsVersion {
		return k
	}
	return &mutated{k: k, m: m}
}

type mutated struct {
	k *epochal.Kernel
	m Mutation
}

func (w *mutated) Invocations() int         { return w.k.Invocations() }
func (w *mutated) Iterations(inv int) int   { return w.k.Iterations(inv) }
func (w *mutated) Sequential(inv int)       { w.k.Sequential(inv) }
func (w *mutated) Execute(inv, iter, t int) { w.k.Execute(inv, iter, t) }
func (w *mutated) Epochs() int              { return w.k.Epochs() }
func (w *mutated) Tasks(epoch int) int      { return w.k.Tasks(epoch) }
func (w *mutated) Snapshot() any            { return w.k.Snapshot() }

// The delta view forwards to the kernel, so the incremental-checkpoint
// path stays engaged under mutation — skip-delta-restore breaks exactly
// that path's repair writes.
func (w *mutated) StateLen() int                       { return w.k.StateLen() }
func (w *mutated) ReadCell(c uint64) int64             { return w.k.ReadCell(c) }
func (w *mutated) AddrCells(a uint64) (uint64, uint64) { return w.k.AddrCells(a) }

func (w *mutated) WriteCell(c uint64, v int64) {
	if w.m == MutSkipDeltaRestore {
		return
	}
	w.k.WriteCell(c, v)
}

func (w *mutated) ComputeAddr(inv, iter int, buf []uint64) []uint64 {
	out := w.k.ComputeAddr(inv, iter, buf)
	switch {
	case w.m == MutDropAddr && len(out) > 1:
		copy(out, out[1:])
		out = out[:len(out)-1]
	case w.m == MutStaleShardClaim && len(out) > 1:
		// Keep only addresses sharing the last address's shard: the stale
		// claim drops every cross-shard edge of the iteration (dropping by
		// the first address's shard would spare the catcher case's reads,
		// which precede the writes in ComputeAddr order).
		want := shadow.ShardOf(out[len(out)-1], shardLanes)
		kept := out[:0]
		for _, a := range out {
			if shadow.ShardOf(a, shardLanes) == want {
				kept = append(kept, a)
			}
		}
		out = kept
	case w.m == MutSkipInlineShard:
		if n := w.k.Iterations(inv); iter >= n-n%shardBatch {
			kept := out[:0]
			for _, a := range out {
				if shadow.ShardOf(a, shardLanes) != shardLanes-1 {
					kept = append(kept, a)
				}
			}
			out = kept
		}
	}
	return out
}

func (w *mutated) Run(epoch, task, tid int, sig *signature.Signature) {
	if w.m == MutDropSigWrite && sig != nil {
		r, wr := w.k.Access(epoch, task, nil, nil)
		for _, a := range r {
			sig.Read(a)
		}
		for i, a := range wr {
			if i > 0 {
				sig.Write(a)
			}
		}
		// State effects are untouched — only the recorded evidence lies.
		w.k.Update(epoch, task)
		return
	}
	w.k.Run(epoch, task, tid, sig)
}

func (w *mutated) Restore(snap any) {
	if w.m == MutSkipRestore {
		return
	}
	w.k.Restore(snap)
}
