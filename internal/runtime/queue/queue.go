// Package queue provides the single-producer single-consumer lock-free ring
// buffer used to forward synchronization conditions from the DOMORE scheduler
// to its workers and checking requests from SPECCROSS workers to the checker.
//
// The design follows the lock-free queue the paper builds on (§3.2.3): one
// cache-line-padded head index owned by the consumer, one tail index owned by
// the producer, and a power-of-two ring so index masking is a single AND.
// Every operation is non-blocking: it reports whether it moved an element,
// and a side that finds the ring full or empty waits the way every engine
// thread does (engine.Runtime.Pause).
package queue

import (
	"fmt"
	"sync/atomic"
)

// cacheLine is the assumed cache-line size used for padding between the
// producer-owned and consumer-owned fields so they never share a line.
const cacheLine = 64

// SPSC is a bounded lock-free queue safe for exactly one producer goroutine
// and one consumer goroutine. The zero value is not usable; construct with
// NewSPSC.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	// Each side's line holds the index it owns and its cached copy of the
	// other side's index (the classic SPSC optimization: re-read the peer's
	// index only when the cached one says full or empty). Both are written
	// by that side alone — the consumer rewrites cachedTail on every empty
	// poll — so neither side's polling dirties a line the other side reads
	// on its fast path.
	_          [cacheLine]byte
	head       atomic.Uint64 // next slot to consume; owned by the consumer
	cachedTail uint64        // consumer's last observed tail
	_          [cacheLine]byte
	tail       atomic.Uint64 // next slot to fill; owned by the producer
	cachedHead uint64        // producer's last observed head
	_          [cacheLine]byte
}

// MaxCapacity bounds NewSPSC: the largest capacity (pre-rounding) a ring
// may be constructed with. Beyond it the power-of-two round-up would
// overflow (capacities above 1<<62 used to spin the constructor forever),
// and any value near it could never be allocated anyway.
const MaxCapacity = 1 << 30

// NewSPSC returns an SPSC queue with capacity rounded up to the next power of
// two. Capacity must be in [1, MaxCapacity].
func NewSPSC[T any](capacity int) *SPSC[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: invalid capacity %d", capacity))
	}
	if capacity > MaxCapacity {
		panic(fmt.Sprintf("queue: capacity %d exceeds maximum %d", capacity, MaxCapacity))
	}
	n := uint64(1)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: n - 1}
}

// Cap reports the queue capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Len reports the number of buffered elements. It is a racy snapshot —
// either index may advance between the two loads and before the caller
// uses the result — so it is suitable for monitoring and heuristics, not
// for synchronization. The two loads are not atomic together: loading
// tail first means a concurrent consumer can advance head past the
// observed tail, which would make the difference negative; Len clamps
// that case to 0. (The tail-then-head order also guarantees the result
// never exceeds Cap: head only grows, so a stale head can only shrink
// the difference.)
func (q *SPSC[T]) Len() int {
	tail := q.tail.Load()
	head := q.head.Load()
	if head >= tail {
		return 0
	}
	return int(tail - head)
}

// TryProduce appends v if there is room and reports whether it did.
// It must only be called from the producer goroutine.
func (q *SPSC[T]) TryProduce(v T) bool {
	tail := q.tail.Load()
	if tail-q.cachedHead >= uint64(len(q.buf)) {
		q.cachedHead = q.head.Load()
		if tail-q.cachedHead >= uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[tail&q.mask] = v
	q.tail.Store(tail + 1)
	return true
}

// TryConsume removes and returns the oldest element if one is buffered.
// It must only be called from the consumer goroutine.
func (q *SPSC[T]) TryConsume() (T, bool) {
	head := q.head.Load()
	if head >= q.cachedTail {
		q.cachedTail = q.tail.Load()
		if head >= q.cachedTail {
			var zero T
			return zero, false
		}
	}
	v := q.buf[head&q.mask]
	var zero T
	q.buf[head&q.mask] = zero // release references for GC
	q.head.Store(head + 1)
	return v, true
}
