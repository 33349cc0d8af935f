package shadow

import (
	"testing"
	"testing/quick"
)

func TestEmptyLookup(t *testing.T) {
	s := NewSparse()
	if e := s.Lookup(3); e.Iter != None {
		t.Errorf("fresh Lookup.Iter = %d, want None", e.Iter)
	}
	if s.Len() != 0 {
		t.Errorf("fresh Len = %d, want 0", s.Len())
	}
}

func TestUpdateLookup(t *testing.T) {
	s := NewSparse()
	s.Update(5, 2, 17)
	if e := s.Lookup(5); e.Tid != 2 || e.Iter != 17 {
		t.Errorf("Lookup(5) = %+v, want {2 17}", e)
	}
	// Overwrite: shadow memory records the most recent accessor only.
	s.Update(5, 3, 20)
	if e := s.Lookup(5); e.Tid != 3 || e.Iter != 20 {
		t.Errorf("after overwrite Lookup(5) = %+v, want {3 20}", e)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestReset(t *testing.T) {
	s := NewSparse()
	s.Update(1, 0, 1)
	s.Update(2, 1, 2)
	s.Reset()
	if s.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", s.Len())
	}
	if e := s.Lookup(1); e.Iter != None {
		t.Errorf("Lookup after Reset = %+v, want empty", e)
	}
}

// TestExchange: Exchange returns what Lookup would have and records what
// Update would have.
func TestExchange(t *testing.T) {
	s := NewSparse()
	if e := s.Exchange(5, 2, 17); e != empty {
		t.Errorf("first Exchange(5) = %+v, want empty", e)
	}
	if e := s.Exchange(5, 3, 20); e != (Entry{Tid: 2, Iter: 17}) {
		t.Errorf("second Exchange(5) = %+v, want {2 17}", e)
	}
	if e := s.Lookup(5); e != (Entry{Tid: 3, Iter: 20}) {
		t.Errorf("Lookup(5) after Exchange = %+v, want {3 20}", e)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

// Property: after any sequence of updates, the sparse table agrees on every
// address with a dense array indexed by address, untouched addresses
// included, and Exchange returns what the array held before the write.
func TestQuickDenseSparseEquivalent(t *testing.T) {
	type op struct {
		Addr uint8
		Tid  int8
		Iter uint16
	}
	prop := func(ops []op) bool {
		var dense [256]Entry
		for a := range dense {
			dense[a] = empty
		}
		used := 0
		s := NewSparse()
		for _, o := range ops {
			e := Entry{Tid: int32(o.Tid), Iter: int64(o.Iter)}
			if dense[o.Addr].Iter == None {
				used++
			}
			if s.Exchange(uint64(o.Addr), e.Tid, e.Iter) != dense[o.Addr] {
				return false
			}
			dense[o.Addr] = e
		}
		for a := uint64(0); a < 256; a++ {
			if s.Lookup(a) != dense[a] {
				return false
			}
		}
		return s.Len() == used
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the most recent Update for an address always wins, and Len
// counts the addresses updated.
func TestQuickLastWriterWins(t *testing.T) {
	prop := func(addrs []uint8) bool {
		s := NewSparse()
		last := map[uint64]Entry{}
		for i, a := range addrs {
			e := Entry{Tid: int32(i % 5), Iter: int64(i)}
			s.Update(uint64(a), e.Tid, e.Iter)
			last[uint64(a)] = e
		}
		for a, want := range last {
			if s.Lookup(a) != want {
				return false
			}
		}
		return s.Len() == len(last)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSparseUpdateLookup(b *testing.B) {
	s := NewSparse()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint64(i) & 0xffff
		s.Update(a, int32(i&3), int64(i))
		_ = s.Lookup(a)
	}
}
