package queue

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestCapacityRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {1000, 1024},
	}
	for _, c := range cases {
		if got := NewSPSC[int](c.in).Cap(); got != c.want {
			t.Errorf("NewSPSC(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSPSC(0) did not panic")
		}
	}()
	NewSPSC[int](0)
}

func TestAbsurdCapacityPanics(t *testing.T) {
	// Capacities above 1<<62 used to overflow the power-of-two round-up
	// and spin NewSPSC forever; anything above MaxCapacity must instead
	// panic with a message that names the limit.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewSPSC(MaxCapacity+1) did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "exceeds maximum") {
			t.Fatalf("panic %v does not explain the capacity limit", r)
		}
	}()
	NewSPSC[int](MaxCapacity + 1)
}

func TestMaxCapacityConstructs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 1Gi-element ring")
	}
	q := NewSPSC[byte](MaxCapacity)
	if q.Cap() != MaxCapacity {
		t.Fatalf("Cap() = %d, want %d", q.Cap(), MaxCapacity)
	}
}

// TestLenNeverNegativeHammer races Len against a concurrent
// producer/consumer pair. Len loads tail then head non-atomically; before
// the clamp, a consumer advancing between the two loads made it return a
// negative length.
func TestLenNeverNegativeHammer(t *testing.T) {
	const n = 50000
	q := NewSPSC[int](64)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			produce(q, i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			consume(q)
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for i := 0; ; i++ {
		select {
		case <-done:
			if l := q.Len(); l != 0 {
				t.Fatalf("drained queue Len() = %d, want 0", l)
			}
			return
		default:
		}
		if l := q.Len(); l < 0 || l > q.Cap() {
			t.Fatalf("Len() = %d outside [0, %d]", l, q.Cap())
		}
		if i%64 == 0 {
			runtime.Gosched() // don't starve the producer/consumer pair
		}
	}
}

// TestFullRingSingleProc pins GOMAXPROCS to 1 and forces the producer to
// wait on a full ring: each side then runs only while the other has yielded
// in its wait, so every refresh of a cached peer index must see the peer's
// last publication, or this test hangs.
func TestFullRingSingleProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	const n = 50000
	q := NewSPSC[int](4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			produce(q, i) // ring is full almost immediately
		}
	}()
	for i := 0; i < n; i++ {
		if got := consume(q); got != i {
			t.Errorf("consumed %d, want %d", got, i)
			break
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("producer did not finish on one processor")
	}
}

func TestTryProduceFull(t *testing.T) {
	q := NewSPSC[int](2)
	if !q.TryProduce(1) || !q.TryProduce(2) {
		t.Fatal("TryProduce failed with room available")
	}
	if q.TryProduce(3) {
		t.Fatal("TryProduce succeeded on a full queue")
	}
	if got := q.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}
}

func TestTryConsumeEmpty(t *testing.T) {
	q := NewSPSC[string](4)
	if v, ok := q.TryConsume(); ok {
		t.Fatalf("TryConsume on empty queue returned %q", v)
	}
}

func TestFIFOOrderSingleThread(t *testing.T) {
	q := NewSPSC[int](8)
	for round := 0; round < 5; round++ { // exercise wraparound
		for i := 0; i < 8; i++ {
			produce(q, round*8+i)
		}
		for i := 0; i < 8; i++ {
			if got := consume(q); got != round*8+i {
				t.Fatalf("round %d: consumed %d, want %d", round, got, round*8+i)
			}
		}
	}
}

func TestInterleavedProduceConsume(t *testing.T) {
	// Single-goroutine interleaving must respect the capacity bound:
	// produce bursts only while TryProduce reports room, then drain one.
	q := NewSPSC[int](4)
	next := 0
	expect := 0
	for i := 0; i < 100; i++ {
		produce(q, next)
		next++
		if i%3 == 0 && q.TryProduce(next) {
			next++
		}
		if got := consume(q); got != expect {
			t.Fatalf("consumed %d, want %d", got, expect)
		}
		expect++
	}
	for expect < next {
		if got := consume(q); got != expect {
			t.Fatalf("drain: consumed %d, want %d", got, expect)
		}
		expect++
	}
}

func TestConcurrentFIFO(t *testing.T) {
	const n = 100000
	q := NewSPSC[int](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			produce(q, i)
		}
	}()
	for i := 0; i < n; i++ {
		if got := consume(q); got != i {
			t.Fatalf("consumed %d, want %d (order violated)", got, i)
		}
	}
	wg.Wait()
	if q.Len() != 0 {
		t.Fatalf("queue not drained: Len() = %d", q.Len())
	}
}

func TestConcurrentStructPayload(t *testing.T) {
	type cond struct {
		Tid  int32
		Iter int64
	}
	const n = 20000
	q := NewSPSC[cond](32)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			got := consume(q)
			if got.Tid != int32(i%7) || got.Iter != int64(i) {
				t.Errorf("payload %d corrupted: %+v", i, got)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		produce(q, cond{Tid: int32(i % 7), Iter: int64(i)})
	}
	<-done
}

// produce and consume are the blocking loops the tests drive the ring
// through: the Try operation until it moves something, yielding between
// attempts so a producer/consumer pair interleaves under GOMAXPROCS=1 too. Engine threads wait through engine.Runtime.Pause instead.
func produce[T any](q *SPSC[T], v T) {
	for !q.TryProduce(v) {
		runtime.Gosched()
	}
}

func consume[T any](q *SPSC[T]) T {
	for {
		if v, ok := q.TryConsume(); ok {
			return v
		}
		runtime.Gosched()
	}
}

// Property: for any sequence of values produced, consuming returns exactly
// that sequence (FIFO preservation).
func TestQuickFIFOProperty(t *testing.T) {
	prop := func(vals []int64) bool {
		q := NewSPSC[int64](8)
		out := make([]int64, 0, len(vals))
		i := 0
		for i < len(vals) {
			for i < len(vals) && q.TryProduce(vals[i]) {
				i++
			}
			for {
				v, ok := q.TryConsume()
				if !ok {
					break
				}
				out = append(out, v)
			}
		}
		for {
			v, ok := q.TryConsume()
			if !ok {
				break
			}
			out = append(out, v)
		}
		if len(out) != len(vals) {
			return false
		}
		for j := range vals {
			if out[j] != vals[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProduceConsume(b *testing.B) {
	q := NewSPSC[int64](1024)
	b.RunParallel(func(pb *testing.PB) {
		// RunParallel with one producer/consumer pair is not expressible;
		// use the serial path to measure per-op cost.
		for pb.Next() {
			q.TryProduce(1)
			q.TryConsume()
		}
	})
}

// TestLayoutKeepsTheSidesApart pins the false-sharing fix: every field the
// consumer writes (head, and cachedTail, which it rewrites on each empty
// poll) is at least a cache line away from every field the producer writes
// (tail, cachedHead), and from the read-only header both sides load.
func TestLayoutKeepsTheSidesApart(t *testing.T) {
	var q SPSC[int64]
	consumer := map[string]uintptr{"head": unsafe.Offsetof(q.head), "cachedTail": unsafe.Offsetof(q.cachedTail)}
	producer := map[string]uintptr{"tail": unsafe.Offsetof(q.tail), "cachedHead": unsafe.Offsetof(q.cachedHead)}
	header := map[string]uintptr{"buf": unsafe.Offsetof(q.buf), "mask": unsafe.Offsetof(q.mask)}
	apart := func(as, bs map[string]uintptr) {
		for an, a := range as {
			for bn, b := range bs {
				if d := max(a, b) - min(a, b); d < cacheLine {
					t.Errorf("%s (offset %d) and %s (offset %d) are %d bytes apart, want >= %d", an, a, bn, b, d, cacheLine)
				}
			}
		}
	}
	apart(consumer, producer)
	apart(consumer, header)
	apart(producer, header)
	if end := unsafe.Sizeof(q) - unsafe.Offsetof(q.cachedHead); end < cacheLine {
		t.Errorf("only %d bytes after cachedHead; a neighbouring allocation could share the producer's line", end)
	}
}
