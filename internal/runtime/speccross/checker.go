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
//     s's thread when r's chunk began ("epochs earlier than the signature's
//     epoch, but at least as recent as the epoch-task pair recorded when
//     the task began", §4.2.1);
//   - r is the earlier-epoch side against any logged later-epoch task s
//     whose own watermark for r's thread was at-or-before r's position —
//     meaning r had not finished when s's chunk began, so they may have
//     overlapped.
//
// A worker's position names its running chunk's first task, or one past
// the last task of the chunk it finished, so a watermark read while a chunk
// runs pairs its every task, conservatively, and one read after it pairs
// none of them. Requests carry whole chunks: a chunk's entries are logged
// under one lock of their row, and each other row is scanned for all of
// them under one read lock.
//
// The log is sharded by worker row, each row guarded by its own lock, so
// shards comparing against different workers' histories never contend.
// Each shard logs a chunk's entries (write lock on its own row) *before*
// scanning the other rows (read locks), which preserves the coverage
// argument pairwise per row: for any overlapping pair (a, b) processed
// concurrently by different shards, if a's scan of b's row missed b, then
// a's read of that row completed before b was appended — so b's later scan
// of a's row, which b performs only after appending itself, observes a.
// Every cross-epoch overlapping pair is checked at least once.
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
			es := req.entries
			if st.headOnly {
				es = es[:1]
			}
			c.process(es, st, loc, tt)
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

// process logs one chunk's entries and performs both comparison directions
// for each. The entries are one worker's consecutive tasks of one epoch,
// sealed, sharing one watermark vector; the worker still owns the slice,
// so process only reads it.
func (c *checker) process(es []taskEntry, st *state, loc *shardLocal, tt *trace.ThreadTrace) {
	head := &es[0]
	epoch, _ := unpackET(head.pos)
	rel, tid := int(epoch)-c.start, int(head.tid)

	// Empty signatures cannot conflict with anything; they are neither
	// logged nor compared (the "guaranteed independent" skip of §4.1.3).
	// A chunk of nothing but empty ones is skipped whole.
	if !c.log(es, tid, rel) {
		return
	}

	// Log first (see the type comment for why ordering matters with
	// sharded checkers), then scan each other row once for the chunk.
	windowNonEmpty := false
	conflict := false
	for o := 0; o < len(c.rows) && !conflict; o++ {
		if o == tid {
			continue
		}
		wmEpoch, _ := unpackET(head.wm[o])
		if int(wmEpoch) < int(epoch) {
			windowNonEmpty = true
		}
		var overlap bool
		conflict, overlap = c.scan(es, o, max(int(wmEpoch)-c.start, 0), rel, loc, tt)
		windowNonEmpty = windowNonEmpty || overlap
	}

	if conflict {
		st.flag(misspecConflict)
		return
	}

	if windowNonEmpty {
		loc.checkRequests++
		tt.Emit(trace.KindCheckRequest, int64(tid), int64(head.pos), 0)
	}
}

// log appends the chunk's non-empty entries to worker tid's row for
// relative epoch rel, under one lock, and folds them into the row-epoch's
// union and its watermark minimum (once: they share one vector). It
// reports whether it logged any. The row's union stays sealed under the
// same lock, so readers always see a sorted accumulator. The lock is
// released by defer, as in scan: a panic in here must not leave the row
// locked against the other shards, which would then never reach a point
// where they notice the runtime stopped.
func (c *checker) log(es []taskEntry, tid, rel int) (logged bool) {
	row := &c.rows[tid]
	row.mu.Lock()
	defer row.mu.Unlock()
	first := len(row.log[rel]) == 0
	for i := range es {
		e := &es[i]
		if e.sig.Empty() {
			continue
		}
		row.log[rel] = append(row.log[rel], *e)
		if row.union[rel] == nil {
			row.union[rel] = signature.New(c.kind)
		}
		row.union[rel].Union(e.sig)
		logged = true
	}
	if !logged {
		return false
	}
	row.union[rel].Seal()
	wm := es[0].wm
	if first {
		row.minWM[rel] = append(row.minWM[rel], wm...)
	} else {
		mw := row.minWM[rel]
		for i, w := range wm {
			if w < mw[i] {
				mw[i] = w
			}
		}
	}
	if rel > row.maxEpoch {
		row.maxEpoch = rel
	}
	return true
}

// scan compares each non-empty entry of a chunk against worker o's row in
// both directions, from relative epoch lo on, under one read lock. It
// reports whether a conflict was found and whether any later-epoch task of
// o overlapped one of them.
func (c *checker) scan(es []taskEntry, o, lo, rel int, loc *shardLocal, tt *trace.ThreadTrace) (conflict, overlap bool) {
	orow := &c.rows[o]
	orow.mu.RLock()
	defer orow.mu.RUnlock()
	for i := range es {
		e := &es[i]
		if e.sig.Empty() {
			continue
		}
		var ov bool
		conflict, ov = c.scanEntry(e, orow, o, lo, rel, loc, tt)
		overlap = overlap || ov
		if conflict {
			return true, overlap
		}
	}
	return false, overlap
}

// scanEntry compares e against the read-locked row orow of worker o. It
// reports whether a conflict was found and whether any later-epoch task of
// o overlapped e.
func (c *checker) scanEntry(e *taskEntry, orow *checkerRow, o, lo, rel int, loc *shardLocal, tt *trace.ThreadTrace) (conflict, overlap bool) {
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
				continue // finished before e's chunk began: ordered, no overlap
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
