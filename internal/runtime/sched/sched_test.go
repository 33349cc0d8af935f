package sched

import (
	"testing"
	"testing/quick"
)

func TestRoundRobinCycles(t *testing.T) {
	p := NewRoundRobin()
	for i := int64(0); i < 20; i++ {
		got := p.Assign(i, nil, 4)
		if len(got) != 1 || got[0] != int(i%4) {
			t.Fatalf("Assign(%d) = %v, want [%d]", i, got, i%4)
		}
	}
	if p.Name() != "round-robin" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestLocalWriteOwnership(t *testing.T) {
	p := NewLocalWrite(100)
	// 4 workers → chunks of 25: [0,25) w0, [25,50) w1, [50,75) w2, [75,100) w3.
	cases := []struct {
		addr uint64
		want int
	}{{0, 0}, {24, 0}, {25, 1}, {49, 1}, {50, 2}, {99, 3}}
	for _, c := range cases {
		if got := p.Owner(c.addr, 4); got != c.want {
			t.Errorf("Owner(%d) = %d, want %d", c.addr, got, c.want)
		}
	}
}

func TestLocalWriteMultiOwnerAssign(t *testing.T) {
	p := NewLocalWrite(100)
	got := p.Assign(7, []uint64{10, 30, 12}, 4) // owners 0, 1, 0 → {0,1}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Assign = %v, want [0 1]", got)
	}
}

func TestLocalWriteEmptyAddrsFallsBack(t *testing.T) {
	p := NewLocalWrite(100)
	got := p.Assign(6, nil, 4)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("Assign with no addrs = %v, want round-robin [2]", got)
	}
}

func TestLocalWriteOutOfRangeClamps(t *testing.T) {
	p := NewLocalWrite(100)
	if got := p.Owner(1000, 4); got != 3 {
		t.Fatalf("Owner(out-of-range) = %d, want last owner 3", got)
	}
}

// Property: every owner is a valid worker index, and owners partition the
// address space monotonically.
func TestQuickLocalWriteValidOwners(t *testing.T) {
	prop := func(addr uint64, space uint32, workers uint8) bool {
		w := int(workers%16) + 1
		sp := uint64(space%10000) + 1
		p := NewLocalWrite(sp)
		o := p.Owner(addr%sp, w)
		return o >= 0 && o < w
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLocalWriteMonotone(t *testing.T) {
	prop := func(a, b uint32, workers uint8) bool {
		w := int(workers%8) + 1
		p := NewLocalWrite(1 << 20)
		x, y := uint64(a)%(1<<20), uint64(b)%(1<<20)
		if x > y {
			x, y = y, x
		}
		return p.Owner(x, w) <= p.Owner(y, w)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRoundRobinAssign(b *testing.B) {
	p := NewRoundRobin()
	for i := 0; i < b.N; i++ {
		_ = p.Assign(int64(i), nil, 8)
	}
}

func BenchmarkLocalWriteAssign(b *testing.B) {
	p := NewLocalWrite(1 << 16)
	addrs := []uint64{17, 42000, 11, 60000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Assign(int64(i), addrs, 8)
	}
}
