package shadow

import (
	"testing"
	"testing/quick"
)

func stores(size int) map[string]Store {
	return map[string]Store{
		"dense":  NewDense(size),
		"sparse": NewSparse(),
	}
}

func TestEmptyLookup(t *testing.T) {
	for name, s := range stores(16) {
		e := s.Lookup(3)
		if e.Iter != None {
			t.Errorf("%s: fresh Lookup.Iter = %d, want None", name, e.Iter)
		}
		if s.Len() != 0 {
			t.Errorf("%s: fresh Len = %d, want 0", name, s.Len())
		}
	}
}

func TestUpdateLookup(t *testing.T) {
	for name, s := range stores(16) {
		s.Update(5, 2, 17)
		e := s.Lookup(5)
		if e.Tid != 2 || e.Iter != 17 {
			t.Errorf("%s: Lookup(5) = %+v, want {2 17}", name, e)
		}
		// Overwrite: shadow memory records the most recent accessor only.
		s.Update(5, 3, 20)
		e = s.Lookup(5)
		if e.Tid != 3 || e.Iter != 20 {
			t.Errorf("%s: after overwrite Lookup(5) = %+v, want {3 20}", name, e)
		}
		if s.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", name, s.Len())
		}
	}
}

func TestReset(t *testing.T) {
	for name, s := range stores(16) {
		s.Update(1, 0, 1)
		s.Update(2, 1, 2)
		s.Reset()
		if s.Len() != 0 {
			t.Errorf("%s: Len after Reset = %d, want 0", name, s.Len())
		}
		if e := s.Lookup(1); e.Iter != None {
			t.Errorf("%s: Lookup after Reset = %+v, want empty", name, e)
		}
	}
}

// TestExchange: Exchange returns what Lookup would have and records what
// Update would have, on every store.
func TestExchange(t *testing.T) {
	for name, s := range stores(16) {
		if e := s.Exchange(5, 2, 17); e != empty {
			t.Errorf("%s: first Exchange(5) = %+v, want empty", name, e)
		}
		if e := s.Exchange(5, 3, 20); e != (Entry{Tid: 2, Iter: 17}) {
			t.Errorf("%s: second Exchange(5) = %+v, want {2 17}", name, e)
		}
		if e := s.Lookup(5); e != (Entry{Tid: 3, Iter: 20}) {
			t.Errorf("%s: Lookup(5) after Exchange = %+v, want {3 20}", name, e)
		}
		if s.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", name, s.Len())
		}
	}
}

// TestDenseOutOfRangePanics: an address beyond the configured bound must
// not read as untouched — that is a dropped dependence.
func TestDenseOutOfRangePanics(t *testing.T) {
	for name, op := range map[string]func(*Dense){
		"Lookup":   func(d *Dense) { d.Lookup(100) },
		"Update":   func(d *Dense) { d.Update(100, 1, 1) },
		"Exchange": func(d *Dense) { d.Exchange(4, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of an out-of-range address did not panic", name)
				}
			}()
			op(NewDense(4))
		}()
	}
}

// Property: after any sequence of updates, both stores agree on every address
// (dense and sparse are behaviourally identical within the dense range).
func TestQuickDenseSparseEquivalent(t *testing.T) {
	type op struct {
		Addr uint8
		Tid  int8
		Iter uint16
	}
	prop := func(ops []op) bool {
		d := NewDense(256)
		s := NewSparse()
		for _, o := range ops {
			tid := int32(o.Tid)
			iter := int64(o.Iter)
			d.Update(uint64(o.Addr), tid, iter)
			s.Update(uint64(o.Addr), tid, iter)
		}
		for a := uint64(0); a < 256; a++ {
			if d.Lookup(a) != s.Lookup(a) {
				return false
			}
		}
		return d.Len() == s.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the most recent Update for an address always wins.
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
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDenseUpdateLookup(b *testing.B) {
	d := NewDense(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint64(i) & 0xffff
		d.Update(a, int32(i&3), int64(i))
		_ = d.Lookup(a)
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
