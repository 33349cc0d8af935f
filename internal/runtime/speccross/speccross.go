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
//
// A worker takes its share of an epoch in chunks of consecutive tasks,
// block-cyclically: with a profiled distance d and W workers a chunk holds
// max(1, d/2/W) tasks, at most an even share of the epoch, and chunk c is
// worker c mod W's. The speculative range, the watermarks and the checker
// hand-off of §4.2.1 are then paid once per chunk, not once per task: a
// chunk publishes its position at its first task, passes the range gate on
// its last, reads one watermark vector, publishes its position one past its
// last task and only then its completion, and sends the checker one request
// holding an entry — signature and position — for each of its tasks. This
// adds no false misspeculation. The gate waits on the chunk's last task,
// completion moves only at chunk ends and the end position is published
// before it, so every pair the checker takes for overlapping lies within
// the distance, where the profile, run with the same signature kind on the
// same input, found no conflict. A range gate of any distance of one or
// more still cannot deadlock: chunks are contiguous and never longer than
// the distance. With no distance a chunk is one task.
//
// The profile decides whether speculation can be safe and how far ahead it
// may run; Run's guard decides whether it pays. Every speculative task pays
// for a signature, a watermark vector, a queue hand-off and a checker
// comparison, whatever its body costs. Run therefore first executes the
// region's epochs in order on the calling thread, which is the sequential
// execution, and times them; on a sample of those tasks it records
// signatures from worker 0's arena, and it times the checker over the
// signatures of two sampled epochs. It speculates from the first epoch
// boundary past the probe's budget only when a lower bound on speculation's
// cost per task is below the inline one, and then times every speculative
// segment: once a segment costs as much per task as the inline execution,
// the rest of the region runs on the calling thread. RunGuardedOn is the
// same guarded execution on a caller's runtime; RunOn, and any run that
// sets Config.ForceMisspecEpoch, is unguarded.
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
	// non-speculative (re-)execution, where no tracking is needed. Run's
	// guard also hands a signature to a sample of the tasks it executes in
	// order on the calling thread, to time the instrumentation, so a body
	// must do the same with and without one, apart from recording.
	Run(epoch, task, tid int, sig *signature.Signature)

	// The speculatively mutated state is an array of StateLen int64 cells,
	// the cell image: the checkpoint of §4.2.2 is one kept copy of it. The
	// engine moves it in bulk, and only while every thread of the run is
	// quiescent, at a segment's checkpoint or rollback, so LoadCells and
	// StoreCells need no synchronization with the tasks and must not keep
	// the slice they are handed.

	// StateLen reports the number of state cells. It must not change
	// during a run.
	StateLen() int
	// LoadCells copies cells [lo, lo+len(dst)) of the state into dst.
	LoadCells(lo uint64, dst []int64)
	// StoreCells overwrites cells [lo, lo+len(src)) of the state with src;
	// the engine uses it to roll cells back to their checkpoint values.
	StoreCells(lo uint64, src []int64)
	// CellMap returns the map from a signature address to the state cell
	// span [lo, hi) it covers — the identity (addr, addr+1) when signature
	// addresses are cell indices — or nil when the workload has no sound
	// one (block- or object-granular addresses with no fixed span).
	//
	// With a map, checkpoints are incremental. During speculative
	// execution every state mutation must then be recorded with
	// Signature.Write *before* the store is performed
	// (record-before-write), and every cell a task stores to must lie
	// inside the span of some address the task recorded. Addresses whose
	// span falls outside [0, StateLen) — sentinel conflict addresses, for
	// example — are ignored. A commit refreshes, and a rollback rewrites,
	// only the runs of cells the segment's write set spans.
	//
	// Without one, the engine logs no writes: a rollback rewrites the
	// whole image, and a commit leaves the image to be captured again
	// before the next speculative segment — one bulk copy of the state
	// per segment either way.
	CellMap() func(addr uint64) (lo, hi uint64)
}

// IdentityCells is the cell map of a workload whose signature addresses are
// its cell indices: address a covers exactly cell a.
func IdentityCells(addr uint64) (lo, hi uint64) { return addr, addr + 1 }

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
	// pair separated by at least the profiled distance is ordered. It also
	// sizes the chunks workers take their tasks in (see the package
	// documentation). Zero or negative means unbounded speculation, one
	// task a chunk.
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
	// fault-injection mode Fig 5.3's "with misspec." series uses. Such a
	// run has asked to exercise recovery, so Run does not guard it.
	// Zero (the default) disables injection.
	ForceMisspecEpoch int
	// Trace, when non-nil, receives engine events: segment control
	// (epoch begin/commit/abort, misspeculation, checkpoint/restore,
	// recovery spans, and the decision of Run's guard as one
	// trace.KindInline) on trace.LaneControl, speculative task spans and
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

// Stats reports what the runtime observed.
//
// Concurrency contract (audited, enforced by the stats_race_test regression
// under -race and by the stats-atomic lint rule): no thread but the control
// goroutine writes Stats. Workers count RangeStalls, and checker shards
// count CheckRequests, Comparisons, PrefilterChecks and PrefilterHits, in
// plain thread-private counters; the control goroutine folds those into
// Stats at each segment's quiesce, when every thread has finished its
// phase, and writes Tasks, Epochs, Misspeculations, Checkpoints,
// ReexecutedEpochs, DeltaCheckpoints, DeltaCells and CheckpointNs itself
// at segment boundaries, and the guard's Inline, InlineTasks, InlineNs and
// SpecNs. The returned Stats is read only after
// the last quiesce, so callers may read it without synchronization.
type Stats struct {
	// Tasks is the number of task executions that stood: the tasks of the
	// committed speculative segments and those Run's guard ran on the
	// calling thread (InlineTasks). An aborted segment's executions, however
	// many ran before the workers saw the flag, are left out, and so is the
	// re-execution that replaced them, so Tasks is a fixed count.
	Tasks int64
	// Epochs is the number of epochs executed speculatively and committed.
	// On a workload with no irreversible epoch, Epochs + ReexecutedEpochs +
	// Inline is every epoch.
	Epochs int64
	// Inline counts the epochs Run's guard executed on the calling thread,
	// its probe included, and InlineTasks their tasks.
	Inline, InlineTasks int64
	// InlineNs and SpecNs are the rates Run's guard decided on, in
	// nanoseconds per task: the probe's inline execution, and speculation's
	// cost — the lower bound the probe's samples give, or the measured rate
	// of the speculative segment after which the rest of the region ran
	// inline. Both are 0 when no guard ran.
	InlineNs, SpecNs float64
	// CheckRequests counts checking requests — one per chunk — sent to the
	// checker thread whose comparison window was non-empty (requests
	// against an empty window are logged but skipped, the optimization
	// §4.1.3 describes).
	CheckRequests int64
	// Comparisons counts signature pairs compared by the checker.
	Comparisons int64
	// Misspeculations counts detected violations (signature conflicts,
	// worker panics, injected faults, and timeouts). Each one rolls the
	// state back once, rewriting the segment's dirty cells from the image —
	// every cell of a workload with no cell map.
	Misspeculations int64
	// Checkpoints counts checkpoints: one at the end of every segment,
	// speculative or not.
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
	// DeltaCheckpoints counts the commits that refreshed the cell image
	// through the segment's dirty cells (a subset of Checkpoints: a
	// workload with no cell map, and an untracked phase, leave the image
	// to be captured again instead); DeltaCells is the total number of
	// state cells those commits refreshed: for each, the exact number of
	// distinct cells its segment's write set spans.
	DeltaCheckpoints int64
	DeltaCells       int64
	// CheckpointNs is the control goroutine's time, in nanoseconds, spent
	// capturing, committing and rolling back the cell image, timed with
	// one pair of clock reads around each. Checkpoints an
	// untracked phase only counts (the guard's inline epochs, barrier
	// recovery) cost nothing here, so a region run wholly inline reads 0.
	CheckpointNs int64
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
