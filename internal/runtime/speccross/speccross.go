// Package speccross implements the SPECCROSS runtime system (Chapter 4): a
// software-only speculative barrier. Worker threads execute past loop
// invocation boundaries (epochs) without synchronizing; each task publishes
// a memory-access signature; a checker thread compares signatures of tasks
// from *different* epochs that overlapped in time (signatures from the same
// epoch are never compared — the inner loops are independently parallelized,
// which is the advantage over TM-style speculation Fig 4.4 illustrates).
// On misspeculation the runtime restores the last checkpoint and re-executes
// the affected epochs with non-speculative barriers (§4.2.2).
//
// The package also provides the profiling mode of §4.4, which computes the
// minimum dependence distance used to bound the speculative range at runtime.
package speccross

import (
	"fmt"
	"runtime"
	"time"

	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/trace"
)

// Workload is the code region SPECCROSS parallelizes: a sequence of epochs
// (parallel loop invocations separated by barriers in the baseline), each a
// set of independent tasks (loop iterations).
type Workload interface {
	// Epochs reports the number of barriers/invocations in the region.
	Epochs() int
	// Tasks reports the number of tasks in the given epoch.
	Tasks(epoch int) int
	// Run executes one task on worker tid. When sig is non-nil the body
	// must record its shared-memory accesses into it (the spec_access
	// instrumentation Algorithm 5 inserts); sig is nil during
	// non-speculative (re-)execution, where no tracking is needed.
	Run(epoch, task, tid int, sig *signature.Signature)
	// Snapshot captures the speculatively-mutated state. It is invoked only
	// at epoch boundaries with all workers quiescent.
	Snapshot() any
	// Restore rolls the state back to a snapshot taken by Snapshot.
	Restore(snapshot any)
}

// DeltaWorkload is optionally implemented by workloads whose speculative
// state is an addressable array of int64 cells (the signature address of a
// cell is its index). It enables incremental copy-on-write checkpoints
// (§4.2.2's checkpoint substitution): instead of a full Snapshot per
// segment, the engine keeps one base image and refreshes or restores only
// the cells the segment's tracked write set touched, so checkpoint and
// recovery cost scale with dirty state rather than heap size.
//
// Contract: during speculative execution every state mutation must be
// recorded with Signature.Write *before* the store is performed
// (record-before-write). Signature addresses need not be element-granular:
// AddrCells maps each one to the state cell span it covers, and every cell
// a task actually stores to must lie inside the span of some address the
// task recorded. Addresses whose span falls outside [0, StateLen) —
// sentinel conflict addresses, for example — are ignored by the
// checkpointer. Run calls with a nil signature (barrier recovery,
// irreversible epochs) are untracked; the engine rebuilds the full base
// image after them. A StateLen of 0 declares the workload delta-incapable
// (no sound address→cell mapping is available) and keeps it on full
// snapshots.
type DeltaWorkload interface {
	Workload
	// StateLen reports the number of state cells (0 disables incremental
	// checkpointing).
	StateLen() int
	// ReadCell returns the current value of one cell.
	ReadCell(cell uint64) int64
	// WriteCell overwrites one cell; the engine uses it to roll dirty
	// cells back to their checkpoint values.
	WriteCell(cell uint64, v int64)
	// AddrCells resolves a signature address to the state cell span
	// [lo, hi) it covers — the identity mapping (addr, addr+1) when
	// signature addresses are element indices.
	AddrCells(addr uint64) (lo, hi uint64)
}

// Irreversibler is optionally implemented by workloads with epochs that
// perform irreversible operations (I/O); such epochs are executed
// non-speculatively between two full synchronizations (§4.2.2).
type Irreversibler interface {
	Irreversible(epoch int) bool
}

// Labeler optionally names the loop each epoch is an invocation of, so the
// profiler can report a minimum dependence distance per loop (the loop_name
// parameter of enter_barrier in Table 4.1).
type Labeler interface {
	EpochLabel(epoch int) string
}

// Config tunes a SPECCROSS execution.
type Config struct {
	// Workers is the number of worker threads. The checker shards
	// (CheckerShards, §4.2.1) run beside them.
	Workers int
	// SigKind selects the signature scheme (default Range, §4.2.1).
	SigKind signature.Kind
	// SpecDistance is the speculation bound in tasks: a worker stalls when
	// it would run SpecDistance or more tasks ahead of the laggard thread
	// (the minimum dependence distance from profiling, §4.4), so any task
	// pair separated by at least the profiled distance is ordered. Zero or
	// negative means unbounded speculation.
	SpecDistance int64
	// SpecDistanceOf, when set, overrides SpecDistance per epoch — the
	// per-loop minimum dependence distances of §4.4 (Table 4.1 passes
	// spec_distance to enter_task per loop; Table 5.3 reports per-loop
	// values for FLUIDANIMATE). The bound applies to tasks of that epoch.
	SpecDistanceOf func(epoch int) int64
	// CheckpointEvery is the number of epochs between checkpoints
	// (default 1000, §4.2.2).
	CheckpointEvery int
	// QueueCap is the per-worker request-queue capacity (default 1024).
	QueueCap int
	// CheckerShards is the number of checker threads, at most Workers. The
	// default is what the machine has left once the workers are placed,
	// clamp(GOMAXPROCS − Workers, 1, 2): the paper's single checker on a
	// core of its own (§4.2.1) when the workers already fill the machine —
	// more checker threads than spare processors only take turns with the
	// workers they check — and two when two processors are spare (the
	// parallelized checker §5.2 names as future work after identifying the
	// single checker thread as the scaling bottleneck). An explicit value
	// is honoured.
	// Each shard drains a subset of the worker queues against a shared
	// signature log sharded by worker row, each row guarded by its own
	// lock; every shard logs its entry before comparing, so for any
	// overlapping pair at least the later-logged side observes the
	// earlier one.
	CheckerShards int
	// SpecTimeout, when positive, bounds the wall-clock duration of one
	// speculative segment; exceeding it triggers misspeculation (the
	// user-defined timeout of §4.2.2, guarding against speculative updates
	// that change loop exit conditions).
	SpecTimeout time.Duration
	// ForceMisspecEpoch, when positive, artificially triggers one
	// misspeculation upon completion of a task of that epoch — the
	// fault-injection mode Fig 5.3's "with misspec." series uses.
	// Zero (the default) disables injection.
	ForceMisspecEpoch int
	// Trace, when non-nil, receives engine events: segment control
	// (epoch begin/commit/abort, misspeculation, checkpoint/restore,
	// recovery spans) on trace.LaneControl, speculative task spans and
	// range stalls on worker lanes 0..Workers-1, and signature
	// comparisons / check requests on checker lanes (shard s emits on
	// trace.LaneCheckerBase - s). A nil Trace compiles the hot path down
	// to nil-receiver no-ops.
	Trace *trace.Recorder
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		panic(fmt.Sprintf("speccross: invalid worker count %d", c.Workers))
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1000
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	c.CheckerShards = c.Shards()
	if c.ForceMisspecEpoch == 0 {
		c.ForceMisspecEpoch = -1
	}
}

// Shards reports how many checker shards a run of c.Workers workers under c
// uses: CheckerShards when set, else its default, and never more than
// Workers.
func (c *Config) Shards() int {
	n := c.CheckerShards
	if n <= 0 {
		n = min(max(runtime.GOMAXPROCS(0)-c.Workers, 1), 2)
	}
	return min(n, c.Workers)
}

// Stats reports what the runtime observed; Table 5.3 is generated from
// these counters.
//
// Concurrency contract (audited, enforced by the stats_race_test regression
// under -race and by the stats-atomic lint rule): no thread but the control
// goroutine writes Stats. Workers count Tasks and RangeStalls, and checker
// shards count CheckRequests, Comparisons, PrefilterChecks and
// PrefilterHits, in plain thread-private counters; the control goroutine
// folds those into Stats at each segment's quiesce, when every thread has
// finished its phase, and writes Epochs, Misspeculations, Checkpoints,
// ReexecutedEpochs, DeltaCheckpoints, DeltaCells and DeltaRestores itself at
// segment boundaries. The returned Stats is read only after the last
// quiesce, so callers may read it without synchronization.
type Stats struct {
	// Tasks is the number of task executions, excluding re-execution.
	Tasks int64
	// Epochs is the number of epochs executed speculatively.
	Epochs int64
	// CheckRequests counts checking requests sent to the checker thread
	// whose comparison window was non-empty (requests against an empty
	// window are logged but skipped, the optimization §4.1.3 describes).
	CheckRequests int64
	// Comparisons counts signature pairs compared by the checker.
	Comparisons int64
	// Misspeculations counts detected violations (signature conflicts,
	// worker panics, injected faults, and timeouts).
	Misspeculations int64
	// Checkpoints counts snapshots taken.
	Checkpoints int64
	// ReexecutedEpochs counts epochs re-executed with non-speculative
	// barriers after misspeculation.
	ReexecutedEpochs int64
	// RangeStalls counts tasks that stalled on the speculative-range bound.
	RangeStalls int64
	// PrefilterChecks counts checker union pre-filter tests: one per
	// candidate (worker, epoch) log row an arriving signature was screened
	// against. Rows whose running union does not conflict skip the precise
	// per-task scan, so Comparisons only counts survivors.
	PrefilterChecks int64
	// PrefilterHits counts the pre-filter tests that passed (the union
	// conflicted, forcing a precise per-task scan). The hit rate
	// PrefilterHits/PrefilterChecks is the cheap checker-pressure signal
	// the adaptive monitor samples.
	PrefilterHits int64
	// DeltaCheckpoints counts checkpoints taken incrementally (a subset of
	// Checkpoints); DeltaCells is the total number of state cells those
	// checkpoints refreshed in the base image.
	DeltaCheckpoints int64
	DeltaCells       int64
	// DeltaRestores counts incremental rollbacks: misspeculation recoveries
	// that rewrote only the segment's dirty cells instead of restoring a
	// full snapshot.
	DeltaRestores int64
}

// packET packs an (epoch, task) pair so positions can be compared with a
// single integer comparison and published with a single atomic store; the
// 64-bit write atomicity requirement §4.2.1 calls out is what the atomic
// gives us on every architecture.
func packET(epoch, task int32) uint64 {
	return uint64(uint32(epoch))<<32 | uint64(uint32(task))
}

func unpackET(v uint64) (epoch, task int32) {
	return int32(v >> 32), int32(uint32(v))
}
