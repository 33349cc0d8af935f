package queue

import (
	"testing"
)

// FuzzSPSCOrder drives one queue single-threaded against a plain slice
// model: the first byte picks the capacity, every following byte is an
// op (even = TryProduce of a running counter, odd = TryConsume). The
// queue must accept exactly when the model has room, surface elements in
// FIFO order, and report an exact Len when no concurrency is involved.
func FuzzSPSCOrder(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 1})          // cap 2: two produces, two consumes
	f.Add([]byte{0, 0, 0, 0, 1})          // cap 1: overflow then drain
	f.Add([]byte{3, 1, 1, 0, 1, 0, 0, 1}) // consume-on-empty interleavings
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		q := NewSPSC[int](int(data[0]%16) + 1)
		var model []int
		next := 0
		for _, op := range data[1:] {
			if op%2 == 0 {
				ok := q.TryProduce(next)
				if want := len(model) < q.Cap(); ok != want {
					t.Fatalf("TryProduce accepted=%v with %d of %d buffered", ok, len(model), q.Cap())
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else {
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

// FuzzSPSCConcurrent streams the fuzz bytes through a queue between a
// real producer goroutine and the consumer, with the capacity chosen by
// the first byte so the ring wraps and both sides wait, on a full ring and
// on an empty one. The consumer must observe exactly the produced
// sequence — any reorder, loss, or duplication is a bug in the index
// protocol.
func FuzzSPSCConcurrent(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 255, 0, 255, 0})
	f.Add([]byte{7, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		vals := data[1:]
		if len(vals) > 4096 {
			vals = vals[:4096]
		}
		q := NewSPSC[byte](int(data[0]%8) + 1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, v := range vals {
				produce(q, v)
			}
		}()
		for i, want := range vals {
			if got := consume(q); got != want {
				t.Errorf("element %d: consumed %d, produced %d", i, got, want)
				break
			}
		}
		<-done
		if _, ok := q.TryConsume(); ok {
			t.Error("queue non-empty after consuming every produced element")
		}
	})
}
