package queue

import (
	"runtime"
	"testing"
)

// FuzzSPSCBatchOrder drives the batch operations single-threaded against a
// plain slice model, freely interleaved with the single-element operations:
// the first byte picks the capacity, then each pair of bytes is (op, size).
// The batch paths must accept exactly min(size, free)/min(size, buffered)
// elements, preserve FIFO order across batch and single operations, and
// keep Len exact after every step.
func FuzzSPSCBatchOrder(f *testing.F) {
	f.Add([]byte{1, 0, 3, 1, 3})                   // cap 2: batch produce 3 (1 rejected), batch consume 3
	f.Add([]byte{3, 0, 2, 2, 0, 1, 2, 3, 0})       // mixed batch/single produce then drains
	f.Add([]byte{0, 0, 1, 0, 1, 1, 2})             // cap 1: batch of 1 behaves like single
	f.Add([]byte{7, 0, 8, 1, 4, 0, 8, 1, 8, 1, 8}) // wrap-around across batches
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		q := NewSPSC[int](int(data[0]%16) + 1)
		var model []int
		next := 0
		ops := data[1:]
		for i := 0; i+1 < len(ops); i += 2 {
			op, size := ops[i]%4, int(ops[i+1]%(16+1))
			switch op {
			case 0: // TryProduceBatch
				vs := make([]int, size)
				for j := range vs {
					vs[j] = next + j
				}
				n := q.TryProduceBatch(vs)
				want := q.Cap() - len(model)
				if want > size {
					want = size
				}
				if want > 0 != (n > 0) || (n > 0 && n != want) {
					t.Fatalf("TryProduceBatch(%d) = %d with %d of %d buffered, want %d",
						size, n, len(model), q.Cap(), want)
				}
				model = append(model, vs[:n]...)
				next += n
			case 1: // TryConsumeBatch
				dst := make([]int, size)
				n := q.TryConsumeBatch(dst)
				want := len(model)
				if want > size {
					want = size
				}
				if n != want {
					t.Fatalf("TryConsumeBatch(%d) = %d with %d buffered, want %d", size, n, len(model), want)
				}
				for j := 0; j < n; j++ {
					if dst[j] != model[j] {
						t.Fatalf("batch element %d = %d, FIFO model = %d", j, dst[j], model[j])
					}
				}
				model = model[n:]
			case 2: // TryProduce
				ok := q.TryProduce(next)
				if want := len(model) < q.Cap(); ok != want {
					t.Fatalf("TryProduce accepted=%v with %d of %d buffered", ok, len(model), q.Cap())
				}
				if ok {
					model = append(model, next)
					next++
				}
			case 3: // TryConsume
				v, ok := q.TryConsume()
				if want := len(model) > 0; ok != want {
					t.Fatalf("TryConsume ok=%v with %d buffered", ok, len(model))
				}
				if ok {
					if v != model[0] {
						t.Fatalf("TryConsume = %d, FIFO model head = %d", v, model[0])
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				t.Fatalf("Len() = %d, model holds %d", q.Len(), len(model))
			}
		}
	})
}

// TestSPSCBatchSingleHammer interleaves batch and single-element operations
// between a real producer/consumer pair: the producer alternates batch
// chunks with single produces, the consumer alternates batch consumes with
// single ones, over a ring small enough to wrap thousands of times. The
// consumer must observe the exact produced sequence. Both sides wait through
// the yielding test helpers, so the schedule interleaves on 1-CPU CI too.
func TestSPSCBatchSingleHammer(t *testing.T) {
	for _, cap := range []int{1, 4, 64} {
		t.Run("", func(t *testing.T) {
			const total = 20000
			q := NewSPSC[int](cap)
			done := make(chan struct{})
			go func() {
				defer close(done)
				chunk := make([]int, 0, 7)
				for next := 0; next < total; {
					if next%3 == 0 {
						chunk = chunk[:0]
						for k := 0; k < 7 && next+k < total; k++ {
							chunk = append(chunk, next+k)
						}
						produceBatch(q, chunk)
						next += len(chunk)
					} else {
						produce(q, next)
						next++
					}
				}
			}()
			dst := make([]int, 5)
			want := 0
			for want < total {
				if want%2 == 0 {
					n := consumeBatch(q, dst)
					for i := 0; i < n; i++ {
						if dst[i] != want {
							t.Fatalf("consumed %d, want %d", dst[i], want)
						}
						want++
					}
				} else {
					if got := consume(q); got != want {
						t.Fatalf("consumed %d, want %d", got, want)
					}
					want++
				}
				if l := q.Len(); l < 0 || l > q.Cap() {
					t.Fatalf("Len() = %d outside [0, %d]", l, q.Cap())
				}
			}
			<-done
			if n := q.TryConsumeBatch(dst); n != 0 {
				t.Fatalf("queue non-empty after consuming every produced element: %d left", n)
			}
		})
	}
}

// TestBatchConsumeSingleCPU pins GOMAXPROCS to 1 and pushes a full ring's
// worth of traffic through the batch operations. On one processor each side
// runs only while the other waits, so a batch operation that stops
// refreshing its cached peer index livelocks this test until the suite
// timeout kills it.
func TestBatchConsumeSingleCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const total = 5000
	q := NewSPSC[int](8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		chunk := make([]int, 0, 16)
		for next := 0; next < total; {
			chunk = chunk[:0]
			for k := 0; k < 16 && next+k < total; k++ {
				chunk = append(chunk, next+k)
			}
			// Batches of 16 into a ring of 8: every ProduceBatch call must
			// split and spin on the full ring, the producer-side dual of the
			// consumer path under test.
			produceBatch(q, chunk)
			next += len(chunk)
		}
	}()
	dst := make([]int, 4)
	for want := 0; want < total; {
		n := consumeBatch(q, dst)
		for i := 0; i < n; i++ {
			if dst[i] != want {
				t.Fatalf("consumed %d, want %d", dst[i], want)
			}
			want++
		}
	}
	<-done
}
