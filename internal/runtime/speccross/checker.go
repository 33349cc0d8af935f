package speccross

import (
	"sync"

	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/trace"
)

// checker is the violation-detection state (§4.2.1, Fig 4.7). One or more
// checker threads (Config.CheckerShards; the paper uses one and names
// parallelizing it as future work, §5.2) drain the per-worker request
// queues and compare each arriving task's signature against logged
// signatures of tasks from *different* epochs that overlapped it in time.
// Same-epoch signatures are never compared — the epochs are independently
// parallelized loops, which is the saving over TM-style speculation
// (Fig 4.4).
//
// Overlap pairing is bidirectional. For an arriving task r:
//
//   - r is the later-epoch side against any logged task s of another thread
//     with s.epoch < r.epoch and s at-or-after the watermark r recorded for
//     s's thread when r began ("epochs earlier than the signature's epoch,
//     but at least as recent as the epoch-task pair recorded when the task
//     began", §4.2.1);
//   - r is the earlier-epoch side against any logged later-epoch task s
//     whose own watermark for r's thread was at-or-before r's position —
//     meaning r had not finished when s began, so they overlapped.
//
// The log is sharded by worker row, each row guarded by its own lock, so
// shards comparing against different workers' histories never contend.
// Each shard logs the entry (write lock on its own row) *before* scanning
// the other rows (read locks), which preserves the coverage argument
// pairwise per row: for any overlapping pair (a, b) processed concurrently
// by different shards, if a's scan of b's row missed b, then a's read of
// that row completed before b was appended — so b's later scan of a's row,
// which b performs only after appending itself, observes a. Every
// cross-epoch overlapping pair is checked at least once.
//
// Two summaries amortize the scans:
//
//   - union[rel] is the running union signature of every entry logged for
//     (worker, epoch): a conservative pre-filter. If the arriving
//     signature does not conflict with the union, it conflicts with no
//     entry, and the precise per-task scan is skipped.
//   - minWM[rel] is the element-wise minimum watermark vector over the
//     row-epoch's entries: the direction-2 overlap test "some logged task
//     began before r finished" becomes one comparison instead of a scan.
type checker struct {
	start int // first epoch of the segment
	kind  signature.Kind
	rows  []checkerRow // one per worker
}

// checkerRow is the signature-log row of one worker (Fig 4.8), with its
// per-epoch entries, union signatures, and watermark minima. The slices
// outlive the segment: reset truncates log and minWM and empties the
// unions, so a row-epoch with nothing logged is one whose log is empty.
type checkerRow struct {
	mu sync.RWMutex
	// log[e-start] holds the entries logged for this worker in epoch e.
	log [][]taskEntry
	// union[e-start] is the union of all logged signatures for the epoch
	// (allocated on first use, then kept).
	union []*signature.Signature
	// minWM[e-start][t] is the minimum watermark any logged entry of the
	// epoch recorded for worker t.
	minWM [][]uint64
	// maxEpoch is the highest epoch index (relative) logged.
	maxEpoch int
}

// reset empties the log for a segment of epochs [start, end), keeping
// every allocation of the segments before it.
func (c *checker) reset(kind signature.Kind, start, end int) {
	c.start, c.kind = start, kind
	n := end - start
	for i := range c.rows {
		r := &c.rows[i]
		for len(r.log) < n {
			r.log = append(r.log, nil)
			r.union = append(r.union, nil)
			r.minWM = append(r.minWM, nil)
		}
		for re := 0; re <= r.maxEpoch; re++ {
			r.log[re] = r.log[re][:0]
			r.minWM[re] = r.minWM[re][:0]
			if u := r.union[re]; u != nil {
				u.Reset()
			}
		}
		r.maxEpoch = -1
	}
}

// dropUnions forgets the union signatures, which are of one kind.
func (c *checker) dropUnions() {
	for i := range c.rows {
		clear(c.rows[i].union)
	}
}

// run is checker shard sh's phase: it consumes requests from the shard's
// rings until each has sent its end token. It flags misspeculation on the
// shared state when a conflict is found and keeps draining so no worker
// blocks on a full queue during shutdown.
func (c *checker) run(st *state, sh int) {
	loc := &st.shards[sh]
	tt := st.rec.Lane(trace.LaneCheckerBase - int32(sh))
	clear(loc.finished)
	remaining := len(loc.queues)
	for spins := 0; remaining > 0; {
		progress := false
		for qi, q := range loc.queues {
			if loc.finished[qi] {
				continue
			}
			req, ok := q.TryConsume()
			if !ok {
				continue
			}
			progress = true
			if req.end {
				loc.finished[qi] = true
				remaining--
				continue
			}
			c.process(req.entry, st, loc, tt)
		}
		if progress {
			spins = 0
			continue
		}
		// Nothing buffered on any queue: let the workers run. The
		// checker's latency only delays detection, never progress.
		spins++
		if !st.rt.Pause(spins) {
			return
		}
	}
}

// process logs the entry and performs both comparison directions.
func (c *checker) process(e taskEntry, st *state, loc *shardLocal, tt *trace.ThreadTrace) {
	epoch, _ := unpackET(e.pos)
	rel := int(epoch) - c.start

	// Empty signatures cannot conflict with anything; skip both the log and
	// the comparisons (the "guaranteed independent" skip of §4.1.3).
	if e.sig.Empty() {
		return
	}

	// Seal while this shard still solely owns the entry: exact sets sort
	// lazily, and after logging, other shards may compare against the
	// signature concurrently — those comparisons must be pure reads.
	e.sig.Seal()

	// Log first (see the type comment for why ordering matters with
	// sharded checkers).
	c.log(e, rel)

	windowNonEmpty := false
	conflict := false
	for o := 0; o < len(c.rows) && !conflict; o++ {
		if o == int(e.tid) {
			continue
		}
		wmEpoch, _ := unpackET(e.wm[o])
		if int(wmEpoch) < int(epoch) {
			windowNonEmpty = true
		}
		lo := int(wmEpoch) - c.start
		if lo < 0 {
			lo = 0
		}
		var overlap bool
		conflict, overlap = c.scan(e, o, lo, rel, loc, tt)
		windowNonEmpty = windowNonEmpty || overlap
	}

	if conflict {
		st.flag(misspecConflict)
		return
	}

	if windowNonEmpty {
		loc.checkRequests++
		tt.Emit(trace.KindCheckRequest, int64(e.tid), int64(e.pos), 0)
	}
}

// log appends e to its worker's row for relative epoch rel and folds it
// into the row-epoch's union and watermark minimum. The row's union stays
// sealed under the same lock, so readers always see a sorted accumulator.
// The lock is released by defer, as in scan: a panic in here must not leave
// the row locked against the other shards, which would then never reach a
// point where they notice the runtime stopped.
func (c *checker) log(e taskEntry, rel int) {
	row := &c.rows[e.tid]
	row.mu.Lock()
	defer row.mu.Unlock()
	first := len(row.log[rel]) == 0
	row.log[rel] = append(row.log[rel], e)
	if row.union[rel] == nil {
		row.union[rel] = signature.New(c.kind)
	}
	row.union[rel].Union(e.sig)
	row.union[rel].Seal()
	if first {
		row.minWM[rel] = append(row.minWM[rel], e.wm...)
	} else {
		mw := row.minWM[rel]
		for i, w := range e.wm {
			if w < mw[i] {
				mw[i] = w
			}
		}
	}
	if rel > row.maxEpoch {
		row.maxEpoch = rel
	}
}

// scan compares e against worker o's row in both directions, from relative
// epoch lo on. It reports whether a conflict was found and whether any
// later-epoch task of o overlapped e.
func (c *checker) scan(e taskEntry, o, lo, rel int, loc *shardLocal, tt *trace.ThreadTrace) (conflict, overlap bool) {
	orow := &c.rows[o]
	orow.mu.RLock()
	defer orow.mu.RUnlock()

	// Direction 1: e is the later-epoch side.
	for re := lo; re < rel && re <= orow.maxEpoch; re++ {
		if len(orow.log[re]) == 0 {
			continue
		}
		loc.prefilterChecks++
		if !e.sig.Conflicts(orow.union[re]) {
			tt.Emit(trace.KindSigPrefilter, 0, int64(o), int64(re))
			continue
		}
		loc.prefilterHits++
		tt.Emit(trace.KindSigPrefilter, 1, int64(o), int64(re))
		for i := range orow.log[re] {
			s := &orow.log[re][i]
			if s.pos < e.wm[o] {
				continue // finished before e began: ordered, no overlap
			}
			loc.comparisons++
			tt.Emit(trace.KindSigCheck, int64(s.tid), int64(s.pos), 0)
			if e.sig.Conflicts(s.sig) {
				return true, overlap
			}
		}
	}

	// Direction 2: e is the earlier-epoch side of already-logged tasks
	// from later epochs that began before e finished.
	for re := rel + 1; re <= orow.maxEpoch; re++ {
		if len(orow.log[re]) == 0 || orow.minWM[re][e.tid] > e.pos {
			continue // every logged task began after e finished: ordered
		}
		overlap = true
		loc.prefilterChecks++
		if !e.sig.Conflicts(orow.union[re]) {
			tt.Emit(trace.KindSigPrefilter, 0, int64(o), int64(re))
			continue
		}
		loc.prefilterHits++
		tt.Emit(trace.KindSigPrefilter, 1, int64(o), int64(re))
		for i := range orow.log[re] {
			s := &orow.log[re][i]
			if s.wm[e.tid] > e.pos {
				continue // s began after e finished: ordered
			}
			loc.comparisons++
			tt.Emit(trace.KindSigCheck, int64(s.tid), int64(s.pos), 0)
			if e.sig.Conflicts(s.sig) {
				return true, overlap
			}
		}
	}
	return false, overlap
}
