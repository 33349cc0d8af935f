package domore

import (
	"sync/atomic"

	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/sched"
	"crossinv/internal/runtime/shadow"
	"crossinv/internal/runtime/trace"
)

// This file implements the sharded DOMORE scheduler (ROADMAP item 2): the
// paper names the single scheduler thread as the engine's scalability
// ceiling (§3.3.3), because it serializes computeAddr, every shadow-memory
// operation, and one queue produce per condition. RunSharded removes all
// three serial costs while preserving Run's schedule exactly:
//
//   - Shadow memory is partitioned by address hash (shadow.Sharded) across
//     N scheduler lanes. Each lane owns one shard and performs dependence
//     detection for exactly the addresses hashing to it, so per address the
//     lookup/update sequence is identical to the single scheduler's — the
//     shard-ownership invariant (see internal/runtime/shadow/sharded.go).
//   - Lanes work chunk-at-a-time: the driver publishes a chunk of
//     iterations, the lanes detect dependences for their shards in
//     parallel, and the driver merges the per-lane conditions back into
//     iteration order. With Options.ConcurrentAddr the lanes also compute
//     the address sets (redundantly, like the duplicated scheduler of
//     §3.4); otherwise the driver precomputes them into a reused arena.
//   - Only a full chunk (Options.Batch iterations) is worth a cross-thread
//     round trip. Without ConcurrentAddr the driver detects a partial chunk
//     — an invocation's tail, or a whole invocation shorter than Batch —
//     itself, for every shard through the lanes' own routine (detect) into
//     the lanes' own condition lists, so the merge cannot tell who ran it.
//     The shard-ownership invariant holds because the lanes are quiescent
//     whenever the driver is not inside a hand-off: they touch a shard only
//     between the driver's publication of a chunk and their completion
//     store, which the driver waits for. Lane threads are posted at the
//     first hand-off, so a run that never fills a chunk starts none.
//   - Synchronization conditions and dispatch records are buffered per
//     worker and published with TryProduceBatch, amortizing the queue's
//     index publication over the chunk instead of paying it per iteration.
//
// Batching must not reorder the schedule's liveness argument: Run's
// correctness rests on the fact that when a worker receives a condition
// referencing ⟨depTid, depIter⟩, the kindRun for depIter is already in
// depTid's queue (the scheduler produced it in an earlier iteration).
// Naive per-chunk flushing breaks this — a worker can stall on a condition
// whose prerequisite dispatch is still sitting in the driver's buffer
// while the driver spins on that worker's full queue. The driver therefore
// maintains the iteration-order publication invariant: before buffering a
// condition that references worker u, it flushes u's entire buffer (which
// by iteration order already holds depIter's dispatch if it is
// unpublished). Dependence-free stretches still get exactly one
// publication per worker per chunk; each manifested dependence forces at
// most one early flush, bounded by SyncConditions.

// defaults for the sharded scheduler knobs (Options.Lanes, Options.Batch).
const (
	defaultLanes = 4
	defaultBatch = 256

	// batchConsume is the worker-side batch: how many messages one
	// TryConsumeBatch drains per head publication.
	batchConsume = 64
)

// laneCond is one dependence a scheduler lane detected: iteration it (a
// chunk-relative index) executed by accessor must wait for depTid to
// finish depIter. Lanes append them in iteration order, which is what lets
// the driver merge the per-lane lists with one cursor each.
type laneCond struct {
	it       int32
	accessor int32
	depTid   int32
	depIter  int64
}

// shardChunk is the driver↔lane handoff record. The driver fills the
// bounds (and, without ConcurrentAddr, the address arena and assignments)
// before publishing the chunk's sequence number; lanes only read those
// fields. With ConcurrentAddr lane 0 instead records counts/tids/tidOff —
// it is the recording lane — between the publish and its completion store,
// so the driver may read them after every lane has completed. All slices
// are reused across chunks; the steady state allocates nothing.
type shardChunk struct {
	stop    bool
	seq     int64 // ordinal of the chunk in the run, from 1
	inv     int32
	it0     int32 // first inner-loop index of the chunk
	n       int32 // iterations in the chunk
	iterNum int64 // combined iteration number of the first

	counts []int64 // per-iteration address count (KindAddrCheck arg)
	tids   []int32 // flat per-iteration assigned workers
	tidOff []int32 // len n+1 offsets into tids

	addrs   []uint64 // serial mode: flat per-iteration address arena
	addrOff []int32  // len n+1 offsets into addrs
}

// shardLane is one scheduler lane's handoff state. ready and done are
// sequence numbers (driver publishes ready, lane publishes done); the
// padding keeps the two spin targets off each other's cache lines.
type shardLane struct {
	ready atomic.Int64
	_     [56]byte
	done  atomic.Int64
	_     [56]byte
	conds []laneCond // the shard's output for the current chunk
	buf   []uint64   // ConcurrentAddr: the lane's ComputeAddr scratch
	waits int64      // chunk-handoff wait episodes; plain, folded at quiesce
	run   func()     // the lane's phase, bound once

	// What check needs: the lane's shard, set when the driver is built, and
	// the rest per run by begin, except that a ConcurrentAddr lane builds a
	// policy of its own and takes owner from that.
	shard      shadow.Store
	nw         int
	pol        sched.Policy
	owner      *sched.LocalWrite
	multiOwner bool
}

// shardedRun carries the driver's merge state so the helpers share it
// without re-threading a dozen parameters. A runtime keeps one between runs
// (state.sharded): lanes, chunk arenas, output buffers and the sharded
// store are reused as long as the lane count stays the same.
type shardedRun struct {
	st    *state
	store *shadow.Sharded // the partitioned shadow memory, cleared per run
	ch    *shardChunk
	lanes []shardLane

	outbuf [][]cond // per-worker buffered (unpublished) messages
	cursor []int    // per-lane merge cursor into lane conds

	// The run in progress.
	w          Workload
	opts       Options
	nw         int
	concurrent bool
	handoffs   int64 // chunks handed to the lanes so far, the stop included
	newPolicy  func() sched.Policy
	stats      Stats
	sch        *trace.ThreadTrace
}

// RunSharded executes the workload under DOMORE with the sharded scheduler
// and batched condition queues. It produces the same schedule as Run — the
// same iterations, dispatches, synchronization conditions, and shadow
// lookups, which the workloadtest equivalence suite asserts field by field
// — with the scheduler's dependence detection spread across Options.Lanes
// concurrent lanes. Stalls and LaneWaits remain timing-dependent. Like Run
// it borrows a runtime from the engine pool for the call.
func RunSharded(w Workload, opts Options) Stats {
	opts.fill()
	rt := engine.Acquire(opts.Workers)
	defer rt.Release()
	return RunShardedOn(rt, w, opts)
}

// RunShardedOn is RunSharded on the threads and state of rt: the calling
// goroutine is the driver, the scheduler lanes run on the runtime's
// auxiliary threads and the workers on its worker threads. See RunOn.
func RunShardedOn(rt *engine.Runtime, w Workload, opts Options) Stats {
	opts.fill()
	if opts.Lanes <= 0 {
		opts.Lanes = defaultLanes
	}
	if opts.Batch <= 0 {
		opts.Batch = defaultBatch
	}
	defer rt.Settle()
	st := stateOn(rt, &opts)
	st.begin(w, opts.Trace)
	d := st.shardedFor(opts.Lanes)
	d.begin(w, opts)

	for tid := range st.local {
		rt.Go(tid, "domore", "worker", st.local[tid].runBatched)
	}
	rt.Labeled("domore", "scheduler", d.drive)
	rt.Wait()
	d.fold()
	return d.stats
}

// fold adds the per-thread counters to the run's stats and zeroes them.
func (d *shardedRun) fold() {
	d.st.fold(&d.stats)
	for l := range d.lanes {
		d.stats.LaneWaits += d.lanes[l].waits
		d.lanes[l].waits = 0
	}
}

// shardedFor returns the driver state for the given lane count, building
// it when the runtime has none or last ran with a different count.
func (st *state) shardedFor(lanes int) *shardedRun {
	if d := st.sharded; d != nil && len(d.lanes) == lanes {
		return d
	}
	d := &shardedRun{
		st:     st,
		store:  shadow.NewSharded(lanes, nil),
		ch:     &shardChunk{},
		lanes:  make([]shardLane, lanes),
		outbuf: make([][]cond, len(st.local)),
		cursor: make([]int, lanes),
	}
	for l := range d.lanes {
		l := l
		d.lanes[l].run = func() { d.lane(l) }
		d.lanes[l].shard = d.store.Shard(l)
	}
	st.sharded = d
	return d
}

// begin resets the driver state for a run; every thread is quiescent.
func (d *shardedRun) begin(w Workload, opts Options) {
	d.w, d.opts, d.nw, d.stats = w, opts, opts.Workers, Stats{}
	d.concurrent = opts.ConcurrentAddr
	d.sch = opts.Trace.Lane(trace.LaneScheduler)
	d.ch.stop, d.ch.seq, d.handoffs = false, 0, 0
	d.store.Reset()
	// Without ConcurrentAddr every lane shares the driver's LocalWrite: all
	// check calls of it is Owner, which is pure.
	var owner *sched.LocalWrite
	var multiOwner bool
	d.newPolicy = nil
	if d.concurrent {
		d.newPolicy = opts.NewPolicy
		if d.newPolicy == nil {
			d.newPolicy = func() sched.Policy { return sched.NewRoundRobin() }
		}
	} else {
		owner, multiOwner = opts.Policy.(*sched.LocalWrite)
	}
	for l := range d.lanes {
		ls := &d.lanes[l]
		ls.ready.Store(0)
		ls.done.Store(0)
		ls.nw = d.nw
		ls.pol, ls.owner, ls.multiOwner = nil, owner, multiOwner
	}
}

// handOff publishes the current chunk to the lanes and waits until every
// lane has completed it. The first hand-off of a run posts the lane phases.
func (d *shardedRun) handOff() {
	if d.handoffs == 0 {
		for l := range d.lanes {
			d.st.rt.GoAux(l, "domore", "sched-lane", d.lanes[l].run)
		}
	}
	d.handoffs++
	for l := range d.lanes {
		d.lanes[l].ready.Store(d.handoffs)
	}
	d.await(d.handoffs)
}

// await spins on the control goroutine until lane l has completed chunk
// seq. If the runtime stopped (a lane or worker died), Wait re-raises.
func (d *shardedRun) await(seq int64) {
	for l := range d.lanes {
		for spins := 0; d.lanes[l].done.Load() < seq; spins++ {
			if !d.st.rt.Pause(spins) {
				d.st.rt.Wait()
			}
		}
	}
}

// drive is the sharded scheduler's main loop: sequential regions, chunk
// detection (handed to the lanes or done here, see the file comment), merge,
// and batched publication.
func (d *shardedRun) drive() {
	w, ch := d.w, d.ch
	iterNum := int64(0)
	invocations := w.Invocations()
	for inv := 0; inv < invocations; inv++ {
		w.Sequential(inv)
		iters := w.Iterations(inv)
		d.sch.Emit(trace.KindEpochBegin, int64(inv), int64(inv+1), 0)
		for it0 := 0; it0 < iters; it0 += d.opts.Batch {
			n := min(iters-it0, d.opts.Batch)
			ch.seq++
			ch.inv, ch.it0, ch.n, ch.iterNum = int32(inv), int32(it0), int32(n), iterNum
			switch {
			case d.concurrent:
				// The lanes' private policies must see every iteration.
				d.handOff()
			case n == d.opts.Batch:
				d.prepareSerial()
				d.handOff()
			default:
				d.prepareSerial()
				d.detect(0, len(d.lanes), d.sch)
			}
			d.merge()
			iterNum += int64(n)
		}
		d.sch.Emit(trace.KindEpochCommit, 1, int64(inv), int64(inv+1))
	}
	// Stop the lanes, if any started, then publish the end tokens.
	if d.handoffs > 0 {
		ch.stop = true
		d.handOff()
	}
	for t := range d.outbuf {
		d.outbuf[t] = append(d.outbuf[t], cond{Kind: kindEnd})
		d.flush(t)
	}
}

// prepareSerial fills the chunk's address arena and worker assignments on
// the driver (the always-safe path for workloads whose ComputeAddr shares
// state, e.g. the interpreter-backed regions). The Policy sees the exact
// call sequence Run would make.
func (d *shardedRun) prepareSerial() {
	ch := d.ch
	ch.counts = ch.counts[:0]
	ch.tids = ch.tids[:0]
	ch.tidOff = append(ch.tidOff[:0], 0)
	ch.addrs = ch.addrs[:0]
	ch.addrOff = append(ch.addrOff[:0], 0)
	for k := int32(0); k < ch.n; k++ {
		start := len(ch.addrs)
		// ComputeAddr may return a private buffer instead of appending to
		// the one passed (the interpreter-backed workloads do), so copy the
		// result into the chunk arena rather than aliasing it.
		d.st.buf = d.w.ComputeAddr(int(ch.inv), int(ch.it0+k), d.st.buf[:0])
		ch.addrs = append(ch.addrs, d.st.buf...)
		ch.addrOff = append(ch.addrOff, int32(len(ch.addrs)))
		ch.counts = append(ch.counts, int64(len(ch.addrs)-start))
		tids := d.opts.Policy.Assign(ch.iterNum+int64(k), ch.addrs[start:], d.nw)
		for _, t := range tids {
			ch.tids = append(ch.tids, int32(t))
		}
		ch.tidOff = append(ch.tidOff, int32(len(ch.tids)))
	}
}

// detect is dependence detection for shards [lo, hi) over a chunk whose
// addresses and assignments are in the chunk arena (prepareSerial): each
// shard's conditions, in iteration order, replace its lane's list. Lane l
// runs it for its own shard on a chunk handed off, the driver for every
// shard on a chunk it keeps — one pass, each address routed to its shard.
// Whoever runs it emits the KindShardChunk events on its own trace lane.
func (d *shardedRun) detect(lo, hi int, tt *trace.ThreadTrace) {
	ch, nl := d.ch, len(d.lanes)
	for l := lo; l < hi; l++ {
		d.lanes[l].conds = d.lanes[l].conds[:0]
	}
	for k := int32(0); k < ch.n; k++ {
		t0, nt := ch.tids[ch.tidOff[k]], int(ch.tidOff[k+1]-ch.tidOff[k])
		for _, a := range ch.addrs[ch.addrOff[k]:ch.addrOff[k+1]] {
			l := 0
			if nl > 1 {
				l = shadow.ShardOf(a, nl)
			}
			if l >= lo && l < hi {
				d.lanes[l].check(k, ch.iterNum+int64(k), a, t0, nt)
			}
		}
	}
	for l := lo; l < hi; l++ {
		tt.Emit(trace.KindShardChunk, int64(l), ch.seq, ch.iterNum)
	}
}

// check is Algorithm 1's shadow step for one address of the lane's shard,
// accessed by iteration iterNum (chunk-relative index k, assigned to nt
// workers of which t0 is the first).
func (ls *shardLane) check(k int32, iterNum int64, a uint64, t0 int32, nt int) {
	accessor := t0
	if ls.multiOwner && nt > 1 {
		accessor = int32(ls.owner.Owner(a, ls.nw))
	}
	dep := ls.shard.Exchange(a, accessor, iterNum)
	if dep.Iter != shadow.None && dep.Tid != accessor {
		ls.conds = append(ls.conds, laneCond{it: k, accessor: accessor, depTid: dep.Tid, depIter: dep.Iter})
	}
}

// lane is one scheduler lane: it processes every chunk handed off, in
// order, but performs shadow exchanges only for the addresses hashing to
// its shard.
func (d *shardedRun) lane(l int) {
	ls := &d.lanes[l]
	lt := d.opts.Trace.Lane(int32(trace.LaneShardBase - l))
	for seq := int64(1); ; seq++ {
		if ls.ready.Load() < seq {
			ls.waits++
			for spins := 0; ls.ready.Load() < seq; spins++ {
				if !d.st.rt.Pause(spins) {
					return
				}
			}
		}
		if d.ch.stop {
			ls.done.Store(seq)
			return
		}
		if d.concurrent {
			d.detectConcurrent(l, lt)
		} else {
			d.detect(l, l+1, lt)
		}
		ls.done.Store(seq)
	}
}

// detectConcurrent is detect for ConcurrentAddr: the lane computes every
// iteration's addresses and assignment itself, on a policy of its own built
// at the run's first chunk. Lane 0 also records the per-iteration
// counts and assignments the driver's merge reads.
func (d *shardedRun) detectConcurrent(l int, lt *trace.ThreadTrace) {
	ls, ch := &d.lanes[l], d.ch
	if ls.pol == nil {
		ls.pol = d.newPolicy()
		ls.owner, ls.multiOwner = ls.pol.(*sched.LocalWrite)
	}
	recording := l == 0
	ls.conds = ls.conds[:0]
	if recording {
		ch.counts = ch.counts[:0]
		ch.tids = ch.tids[:0]
		ch.tidOff = append(ch.tidOff[:0], 0)
	}
	for k := int32(0); k < ch.n; k++ {
		iterNum := ch.iterNum + int64(k)
		ls.buf = d.w.ComputeAddr(int(ch.inv), int(ch.it0+k), ls.buf[:0])
		tids := ls.pol.Assign(iterNum, ls.buf, d.nw)
		if recording {
			ch.counts = append(ch.counts, int64(len(ls.buf)))
			for _, t := range tids {
				ch.tids = append(ch.tids, int32(t))
			}
			ch.tidOff = append(ch.tidOff, int32(len(ch.tids)))
		}
		for _, a := range ls.buf {
			if shadow.ShardOf(a, len(d.lanes)) == l {
				ls.check(k, iterNum, a, int32(tids[0]), len(tids))
			}
		}
	}
	lt.Emit(trace.KindShardChunk, int64(l), ch.seq, ch.iterNum)
}

// merge replays the completed chunk in iteration order on the driver:
// per-lane conditions are merged and deduplicated exactly as the single
// scheduler would (addDep keeps the newest iteration per source thread, an
// order-independent maximum, so the merged set matches Run's), the
// scheduler-lane trace events are emitted, and the outgoing messages are
// buffered per worker under the iteration-order publication invariant.
func (d *shardedRun) merge() {
	ch, stats, pending := d.ch, &d.stats, d.st.pending
	for l := range d.cursor {
		d.cursor[l] = 0
	}
	for k := int32(0); k < ch.n; k++ {
		iterNum := ch.iterNum + int64(k)
		tids := ch.tids[ch.tidOff[k]:ch.tidOff[k+1]]
		d.sch.Emit(trace.KindSchedule, 1, int64(ch.inv), iterNum)
		d.sch.Emit(trace.KindAddrCheck, ch.counts[k], int64(ch.inv), iterNum)
		stats.AddrChecks += ch.counts[k]
		for _, t := range tids {
			pending[t] = pending[t][:0]
		}
		for l := range d.lanes {
			lc := d.lanes[l].conds
			for d.cursor[l] < len(lc) && lc[d.cursor[l]].it == k {
				c := lc[d.cursor[l]]
				d.cursor[l]++
				pending[c.accessor] = addDep(pending[c.accessor], c.depTid, c.depIter)
			}
		}
		for _, t := range tids {
			for _, dep := range pending[t] {
				// Publication invariant: dep references ⟨dep.Tid, dep.Iter⟩;
				// dep.Iter's dispatch was buffered to dep.Tid in an earlier
				// iteration, so flushing dep.Tid first guarantees it is on
				// the queue before this condition can be.
				d.flush(int(dep.Tid))
				d.outbuf[t] = append(d.outbuf[t], dep)
				stats.SyncConditions++
				d.sch.Emit(trace.KindSyncCond, int64(t), int64(dep.Tid), dep.Iter)
			}
			d.outbuf[t] = append(d.outbuf[t], cond{Kind: kindRun, Iter: iterNum, Inv: ch.inv, Index: ch.it0 + k})
			stats.Dispatches++
			d.sch.Emit(trace.KindDispatch, int64(t), iterNum, 0)
		}
		stats.Iterations++
	}
	for t := range d.outbuf {
		d.flush(t)
	}
}

// flush publishes worker t's buffered messages with a batched produce (one
// tail publication per available stretch of ring), recording a queue-full
// backoff episode when the ring cannot take the whole batch at once. An
// empty buffer is a no-op, so Batches counts exactly the non-empty
// publications.
func (d *shardedRun) flush(t int) {
	msgs := d.outbuf[t]
	if len(msgs) == 0 {
		return
	}
	q := d.st.queues[t]
	n := q.TryProduceBatch(msgs)
	if n < len(msgs) {
		d.sch.Emit(trace.KindQueueFullBegin, int64(t), 0, 0)
		for spins := 1; n < len(msgs); spins++ {
			k := q.TryProduceBatch(msgs[n:])
			if k == 0 {
				if !d.st.rt.Pause(spins) {
					d.st.rt.Wait()
				}
			} else {
				n += k
				spins = 0
			}
		}
		d.sch.Emit(trace.KindQueueFullEnd, int64(t), 0, 0)
	}
	d.stats.Batches++
	if d.sch.Enabled() {
		d.sch.Emit(trace.KindQueueDepth, int64(q.Len()), int64(t), 0)
	}
	d.outbuf[t] = msgs[:0]
}

// workerBatched is Algorithm 2 on the batched consume path: identical
// message semantics to worker, but the queue's head index is published
// once per drained batch instead of once per message. The empty-ring wait
// pauses like every engine wait, so single-CPU boxes still make progress
// (see TESTING.md, "Single-CPU runners").
func (st *state) workerBatched(tid int) {
	q, tt := st.queues[tid], st.rec.Lane(int32(tid))
	if st.local[tid].batch == nil {
		st.local[tid].batch = make([]cond, batchConsume)
	}
	batch := st.local[tid].batch
	for {
		n := q.TryConsumeBatch(batch)
		if n == 0 {
			tt.Emit(trace.KindQueueEmptyBegin, int64(tid), 0, 0)
			for spins := 1; n == 0; spins++ {
				n = q.TryConsumeBatch(batch)
				if n == 0 && !st.rt.Pause(spins) {
					return
				}
			}
			tt.Emit(trace.KindQueueEmptyEnd, int64(tid), 0, 0)
		}
		for i := 0; i < n; i++ {
			// The end token is always the final message on the queue, so no
			// batch tail can follow it.
			if !st.step(batch[i], tid, tt) {
				return
			}
		}
	}
}
