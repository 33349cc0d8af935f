package shadow

import (
	"math"
	"testing"
)

// fuzzAddrs is the address pool FuzzTableAgreesWithMap draws from: address
// 0, fifteen addresses that share address 0's home slot at every table size
// the fuzz can reach (the top 12 bits of their hash are zero, so they probe
// through one another), then small sequential and scattered 64-bit addresses
// alternating — 2048 in all, enough to double the table three times.
var fuzzAddrs = func() []uint64 {
	pool := []uint64{0}
	for a := uint64(1); len(pool) < 16; a++ {
		if a*0x9e3779b97f4a7c15>>52 == 0 {
			pool = append(pool, a)
		}
	}
	for i := uint64(16); i < 2048; i++ {
		if i%2 == 0 {
			pool = append(pool, scatter(i))
		} else {
			pool = append(pool, i)
		}
	}
	return pool
}()

// scatter is a splitmix64 finalizer: it turns small integers into 64-bit
// addresses whose bits all depend on all of the input's.
func scatter(a uint64) uint64 {
	a ^= a >> 30
	a *= 0xbf58476d1ce4e5b9
	a ^= a >> 27
	a *= 0x94d049bb133111eb
	a ^= a >> 31
	return a
}

// FuzzTableAgreesWithMap drives a Sparse store and a Go-map model with the
// same Exchange/Update/Lookup/Len/Reset sequence and requires every result
// to agree. data[0] places the generation stamp 0–3 resets before it wraps;
// each following 4-byte record is (op, addr, tid, iter) with the address
// index addr + 256·(op>>3 & 7) into fuzzAddrs.
func FuzzTableAgreesWithMap(f *testing.F) {
	f.Add([]byte{0, 0, 5, 1, 9, 0, 5, 2, 3, 4, 5, 0, 0})             // exchange twice, lookup
	f.Add([]byte{1, 0, 0, 1, 1, 0, 1, 2, 2, 0, 2, 3, 3, 4, 0, 0, 0}) // address 0 and its colliders
	var grow, wrap []byte
	grow = append(grow, 3)
	for i := 0; i < 600; i++ { // 600 distinct keys: two doublings, a reset between, then reuse
		if i == 300 {
			grow = append(grow, 7, 0, 0, 0)
		}
		grow = append(grow, byte(i>>8)<<3, byte(i), byte(i%5), byte(i))
	}
	f.Add(grow)
	wrap = append(wrap, 2)
	for r := 0; r < 6; r++ { // six resets from MaxUint32-2: through the wrap and past it
		wrap = append(wrap, 0, byte(r), 1, byte(r), 0, 1, 2, byte(r), 6, 0, 0, 0, 7, 0, 0, 0, 4, byte(r), 0, 0)
	}
	f.Add(wrap)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := NewSparse()
		s.gen = math.MaxUint32 - uint32(data[0]%4)
		model := make(map[uint64]Entry)
		lookup := func(addr uint64) Entry {
			if e, ok := model[addr]; ok {
				return e
			}
			return empty
		}
		for i := 1; i+3 < len(data); i += 4 {
			op := data[i]
			addr := fuzzAddrs[int(data[i+1])+256*int(op>>3&7)]
			tid, iter := int32(data[i+2]), int64(data[i+3])
			switch op % 8 {
			case 0, 1, 2:
				if got, want := s.Exchange(addr, tid, iter), lookup(addr); got != want {
					t.Fatalf("record %d: Exchange(%#x) = %+v, model held %+v", i/4, addr, got, want)
				}
				model[addr] = Entry{Tid: tid, Iter: iter}
			case 3:
				s.Update(addr, tid, iter)
				model[addr] = Entry{Tid: tid, Iter: iter}
			case 4, 5:
				if got, want := s.Lookup(addr), lookup(addr); got != want {
					t.Fatalf("record %d: Lookup(%#x) = %+v, model holds %+v", i/4, addr, got, want)
				}
			case 6:
				if s.Len() != len(model) {
					t.Fatalf("record %d: Len = %d, model holds %d", i/4, s.Len(), len(model))
				}
			case 7:
				s.Reset()
				clear(model)
				if s.gen == 0 {
					t.Fatalf("record %d: Reset left the stamp at 0, the stamp of a fresh slot", i/4)
				}
			}
		}
		for _, addr := range fuzzAddrs {
			if got, want := s.Lookup(addr), lookup(addr); got != want {
				t.Fatalf("final Lookup(%#x) = %+v, model holds %+v", addr, got, want)
			}
		}
		if s.Len() != len(model) {
			t.Fatalf("final Len = %d, model holds %d", s.Len(), len(model))
		}
		if 2*s.Len() > len(s.slots) {
			t.Fatalf("load above one half: %d entries in %d slots", s.Len(), len(s.slots))
		}
	})
}

// TestSparseResetRefillAllocs: a store that has grown to fit a run's
// addresses is reused by the next run — reset and refilled — without
// allocating.
func TestSparseResetRefillAllocs(t *testing.T) {
	s := NewSparse()
	fill := func() {
		for i, a := range fuzzAddrs {
			s.Exchange(a, int32(i&3), int64(i))
		}
	}
	fill()
	size := len(s.slots)
	if size <= sparseMinSlots {
		t.Fatalf("%d addresses left the table at %d slots; the test needs it grown", len(fuzzAddrs), size)
	}
	if n := testing.AllocsPerRun(10, func() { s.Reset(); fill() }); n != 0 {
		t.Errorf("reset and refill allocated %.0f times", n)
	}
	if len(s.slots) != size || s.Len() != len(fuzzAddrs) {
		t.Errorf("after refills: %d slots (were %d), Len %d (want %d)", len(s.slots), size, s.Len(), len(fuzzAddrs))
	}
}
