// Package shadow implements the shadow memory the DOMORE scheduler uses to
// detect dynamic dependences at runtime (§3.2.1). Each shadow entry records
// which worker thread last touched the corresponding memory location and in
// which (combined, cross-invocation) iteration, as the tuple ⟨tid, iterNum⟩.
//
// The store is Sparse, a hash table, so any address space a workload uses —
// compact array indices or large scattered addresses — costs memory in the
// addresses touched. It is a single-writer structure: only the scheduler
// thread mutates it, so no internal locking is needed.
package shadow

import "math/bits"

// None is the iteration number stored in an empty entry; the paper writes it
// as ⊥ and tests depIterNum != -1 in Algorithm 1.
const None int64 = -1

// Entry is one shadow-memory cell: the last accessor of an address.
type Entry struct {
	Tid  int32 // worker thread that last accessed the address
	Iter int64 // combined iteration number of that access, or None
}

// empty is the value of an untouched cell.
var empty = Entry{Tid: -1, Iter: None}

// Sparse is the shadow store for any address space, however large or
// scattered (the space/time trade-off §3.2.1 discusses): an open-addressed,
// linear-probed hash table of ⟨addr, iter, tid⟩ slots kept at load ≤ ½. It
// grows by doubling and never shrinks, nothing is ever deleted from it (so
// probing needs no tombstones), and Reset is O(1): every slot carries the
// generation it was written in, and a slot of another generation is empty.
type Sparse struct {
	slots []slot
	shift uint   // 64 - log2(len(slots)): home takes the hash's high bits
	used  int    // slots of the current generation
	gen   uint32 // current generation; never 0, the stamp of a fresh slot
}

type slot struct {
	addr uint64
	iter int64
	tid  int32
	gen  uint32
}

// sparseMinSlots is the table size NewSparse starts from.
const sparseMinSlots = 256

// NewSparse returns an empty sparse store.
func NewSparse() *Sparse {
	s := &Sparse{gen: 1}
	s.alloc(sparseMinSlots)
	return s
}

func (s *Sparse) alloc(n int) {
	s.slots = make([]slot, n)
	s.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// home is addr's first probe position: Fibonacci hashing, which spreads the
// sequential array indices the workloads use as addresses evenly.
func (s *Sparse) home(addr uint64) uint64 {
	return addr * 0x9e3779b97f4a7c15 >> s.shift
}

// Lookup returns the last recorded accessor of addr, or an entry with Iter
// == None if the address has not been touched.
func (s *Sparse) Lookup(addr uint64) Entry {
	mask := uint64(len(s.slots) - 1)
	for i := s.home(addr); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			return empty
		}
		if sl.addr == addr {
			return Entry{Tid: sl.tid, Iter: sl.iter}
		}
	}
}

// Exchange is Lookup followed by Update in one step: it records that worker
// tid accessed addr during iteration iter and returns the accessor it
// replaced. It is what the scheduler calls per address (Algorithm 1 always
// does both), and one probe sequence finds the slot, reads the previous
// accessor and writes the new one.
func (s *Sparse) Exchange(addr uint64, tid int32, iter int64) Entry {
	mask := uint64(len(s.slots) - 1)
	for i := s.home(addr); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			if 2*(s.used+1) > len(s.slots) {
				s.grow()
				return s.Exchange(addr, tid, iter)
			}
			*sl = slot{addr: addr, iter: iter, tid: tid, gen: s.gen}
			s.used++
			return empty
		}
		if sl.addr == addr {
			prev := Entry{Tid: sl.tid, Iter: sl.iter}
			sl.tid, sl.iter = tid, iter
			return prev
		}
	}
}

// Update records that worker tid accessed addr during iteration iter.
func (s *Sparse) Update(addr uint64, tid int32, iter int64) { s.Exchange(addr, tid, iter) }

// grow doubles the table and re-inserts the current generation's slots.
func (s *Sparse) grow() {
	old := s.slots
	s.alloc(2 * len(old))
	mask := uint64(len(s.slots) - 1)
	for k := range old {
		if old[k].gen != s.gen {
			continue
		}
		i := s.home(old[k].addr)
		for s.slots[i].gen == s.gen {
			i = (i + 1) & mask
		}
		s.slots[i] = old[k]
	}
}

// Reset clears every entry, between region executions, by moving to the
// next generation. When the stamp
// wraps, slots written 2³² resets ago would read as current, so that one
// reset in 2³² clears the table.
func (s *Sparse) Reset() {
	s.used = 0
	s.gen++
	if s.gen == 0 {
		clear(s.slots)
		s.gen = 1
	}
}

// Len reports how many addresses currently have a recorded accessor.
func (s *Sparse) Len() int { return s.used }
