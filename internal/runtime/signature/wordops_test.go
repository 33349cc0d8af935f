package signature

import (
	"math/rand"
	"slices"
	"testing"

	"crossinv/internal/raceflag"
)

// This file differentially tests the word-parallel set operations (the
// whole-word AND/popcount intersect, the whole-word OR union, and the
// sorted-slice exact sets) against bit-by-bit and map-based references.
// The references are deliberately the naive formulations the word loops
// replaced, so any divergence is a bug in the fast path.

// refBloom is a bit-by-bit reference Bloom filter: one bool per bit,
// probes computed with the same partitioned hashing as BloomSet.
type refBloom struct {
	bits []bool
	n    int
}

func newRefBloom() *refBloom {
	return &refBloom{bits: make([]bool, DefaultBloomBits)}
}

func (r *refBloom) add(addr uint64) {
	seg := uint64(len(r.bits)) / bloomHashes
	for i := uint64(0); i < bloomHashes; i++ {
		r.bits[i*seg+bloomHash(addr, i+1)%seg] = true
	}
	r.n++
}

// intersects is the bit-by-bit formulation of the >= k common-bit test.
func (r *refBloom) intersects(o *refBloom) bool {
	if r.n == 0 || o.n == 0 {
		return false
	}
	common := 0
	for i := range r.bits {
		if r.bits[i] && o.bits[i] {
			common++
			if common >= bloomHashes {
				return true
			}
		}
	}
	return false
}

func (r *refBloom) union(o *refBloom) {
	for i := range r.bits {
		r.bits[i] = r.bits[i] || o.bits[i]
	}
	r.n += o.n
}

// sameBits asserts the packed word vector equals the reference bit array.
func sameBits(t *testing.T, b *BloomSet, r *refBloom) {
	t.Helper()
	for i := range r.bits {
		got := b.bits[i/64]>>(i%64)&1 == 1
		if got != r.bits[i] {
			t.Fatalf("bit %d: word-parallel filter has %v, bit-by-bit reference has %v", i, got, r.bits[i])
		}
	}
}

// drawAddrs mixes clustered small addresses (so real overlaps happen) with
// the known probe-collision addresses from the PR 5 soundness fix.
func drawAddrs(rng *rand.Rand) []uint64 {
	collisions := []uint64{53, 532, 1431, 2050, 2283}
	n := rng.Intn(20)
	addrs := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			addrs = append(addrs, collisions[rng.Intn(len(collisions))])
		} else {
			addrs = append(addrs, uint64(rng.Intn(4096)))
		}
	}
	return addrs
}

// TestBloomWordOpsMatchBitReference drives random add/union/intersect
// sequences through BloomSet and the bit-by-bit reference in lockstep: the
// bit vectors must stay identical and every intersection verdict must
// agree, including after unions and resets.
func TestBloomWordOpsMatchBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		a, b := NewBloomSet(DefaultBloomBits), NewBloomSet(DefaultBloomBits)
		ra, rb := newRefBloom(), newRefBloom()
		for _, addr := range drawAddrs(rng) {
			a.Add(addr)
			ra.add(addr)
		}
		for _, addr := range drawAddrs(rng) {
			b.Add(addr)
			rb.add(addr)
		}
		sameBits(t, a, ra)
		sameBits(t, b, rb)
		if got, want := a.Intersects(b), ra.intersects(rb); got != want {
			t.Fatalf("trial %d: word-parallel Intersects = %v, bit-by-bit = %v", trial, got, want)
		}

		// Union must equal the bit-by-bit OR, and verdicts must agree after.
		u := NewBloomSet(DefaultBloomBits)
		u.Union(a)
		u.Union(b)
		ru := newRefBloom()
		ru.union(ra)
		ru.union(rb)
		sameBits(t, u, ru)
		probe, rp := NewBloomSet(DefaultBloomBits), newRefBloom()
		for _, addr := range drawAddrs(rng) {
			probe.Add(addr)
			rp.add(addr)
		}
		if got, want := u.Intersects(probe), ru.intersects(rp); got != want {
			t.Fatalf("trial %d: post-union Intersects = %v, reference = %v", trial, got, want)
		}

		// Reset must clear every word.
		a.Reset()
		if !a.Empty() {
			t.Fatalf("trial %d: Reset left the filter non-empty", trial)
		}
		for i, w := range a.bits {
			if w != 0 {
				t.Fatalf("trial %d: Reset left word %d = %#x", trial, i, w)
			}
		}
	}
}

// refExact is the map-backed exact set the sorted-slice version replaced.
type refExact map[uint64]struct{}

func (r refExact) intersects(o refExact) bool {
	for a := range r {
		if _, ok := o[a]; ok {
			return true
		}
	}
	return false
}

// TestExactSliceMatchesMapReference differentially tests the sorted-slice
// ExactSet (lazy sort, duplicates allowed, merge-scan intersect) against
// the map reference across random add/union/reset sequences.
func TestExactSliceMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 2000; trial++ {
		a, b := NewExactSet(), NewExactSet()
		ra, rb := refExact{}, refExact{}
		for _, addr := range drawAddrs(rng) {
			a.Add(addr)
			ra[addr] = struct{}{}
		}
		for _, addr := range drawAddrs(rng) {
			b.Add(addr)
			rb[addr] = struct{}{}
		}
		if got, want := a.Intersects(b), ra.intersects(rb); got != want {
			t.Fatalf("trial %d: slice Intersects = %v, map reference = %v", trial, got, want)
		}
		if got, want := a.Empty(), len(ra) == 0; got != want {
			t.Fatalf("trial %d: Empty = %v, reference = %v", trial, got, want)
		}

		// Union then probe.
		a.Union(b)
		for addr := range rb {
			ra[addr] = struct{}{}
		}
		probe := NewExactSet()
		rp := refExact{}
		for _, addr := range drawAddrs(rng) {
			probe.Add(addr)
			rp[addr] = struct{}{}
		}
		if got, want := a.Intersects(probe), ra.intersects(rp); got != want {
			t.Fatalf("trial %d: post-union Intersects = %v, reference = %v", trial, got, want)
		}

		// Reset and reuse: stale addresses must not linger.
		a.Reset()
		if !a.Empty() {
			t.Fatalf("trial %d: Reset left the set non-empty", trial)
		}
		a.Add(1)
		only := NewExactSet()
		only.Add(2)
		if a.Intersects(only) {
			t.Fatalf("trial %d: reset set intersects a disjoint singleton", trial)
		}
	}
}

// TestUnionPreFilterSoundness pins the property the checker's per-epoch
// union pre-filter relies on: if a probe signature does not conflict with
// the union of a group of signatures, it conflicts with none of them.
func TestUnionPreFilterSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range []Kind{Range, Bloom, Exact} {
		for trial := 0; trial < 500; trial++ {
			group := make([]*Signature, 1+rng.Intn(6))
			union := New(k)
			for i := range group {
				group[i] = New(k)
				for _, a := range drawAddrs(rng) {
					group[i].Read(a)
				}
				for _, a := range drawAddrs(rng) {
					group[i].Write(a)
				}
				union.Union(group[i])
			}
			probe := New(k)
			for _, a := range drawAddrs(rng) {
				probe.Read(a)
			}
			for _, a := range drawAddrs(rng) {
				probe.Write(a)
			}
			if probe.Conflicts(union) {
				continue
			}
			for i, g := range group {
				if probe.Conflicts(g) {
					t.Fatalf("kind %v trial %d: union pre-filter says no conflict but member %d conflicts", k, trial, i)
				}
			}
		}
	}
}

// TestSealedSignatureComparisonsAreReadOnly checks Seal makes subsequent
// exact-set comparisons non-mutating, which is what lets multiple checker
// shards compare against the same logged signature concurrently.
func TestSealedSignatureComparisonsAreReadOnly(t *testing.T) {
	s := New(Exact)
	for _, a := range []uint64{9, 3, 7, 3, 1} {
		s.Read(a)
		s.Write(a + 100)
	}
	s.Seal()
	probe := New(Exact)
	probe.Write(3)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				if !s.Conflicts(probe) {
					panic("sealed signature lost a conflict")
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// TestNewBatchEquivalence checks batch-allocated signatures behave
// identically to individually allocated ones for every kind.
func TestNewBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, k := range []Kind{Range, Bloom, Exact} {
		batch := NewBatch(k, 8)
		for i := range batch {
			single := New(k)
			for _, a := range drawAddrs(rng) {
				batch[i].Read(a)
				single.Read(a)
			}
			for _, a := range drawAddrs(rng) {
				batch[i].Write(a)
				single.Write(a)
			}
			probe := New(k)
			for _, a := range drawAddrs(rng) {
				probe.Write(a)
			}
			if got, want := batch[i].Conflicts(probe), single.Conflicts(probe); got != want {
				t.Fatalf("kind %v slot %d: batch Conflicts = %v, single = %v", k, i, got, want)
			}
		}
		// Neighbouring batch slots must be fully isolated.
		batch2 := NewBatch(k, 2)
		batch2[0].Write(42)
		if !batch2[1].Empty() {
			t.Fatalf("kind %v: writing slot 0 leaked into slot 1", k)
		}
		probe := New(k)
		probe.Read(42)
		if batch2[1].Conflicts(probe) {
			t.Fatalf("kind %v: slot 1 conflicts through slot 0's write", k)
		}
	}
}

// TestWriteLogRecordsWrites pins the WriteLog contract the incremental
// checkpointer relies on: with a log installed every Write appends its
// address in order, reads never do, and a nil log costs nothing.
func TestWriteLogRecordsWrites(t *testing.T) {
	s := New(Range)
	s.Write(5) // no log installed: not recorded
	s.WriteLog = make([]uint64, 0, 4)
	s.Read(1)
	s.Write(2)
	s.Write(2)
	s.Write(9)
	got := s.WriteLog
	want := []uint64{2, 2, 9}
	if len(got) != len(want) {
		t.Fatalf("WriteLog = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WriteLog = %v, want %v", got, want)
		}
	}
	s.Reset()
	if s.WriteLog != nil {
		t.Fatal("Reset did not detach the write log")
	}
}

// decodeWordOpsCase turns fuzz bytes into an operation sequence over a
// pair of sets: each 3-byte record is (op, addrHi, addrLo). op mod 4
// selects add-to-A, add-to-B, union-B-into-A, or reset-A.
func decodeWordOpsCase(data []byte) (ops []int, addrs []uint64) {
	for i := 0; i+2 < len(data); i += 3 {
		ops = append(ops, int(data[i]%4))
		addrs = append(addrs, uint64(data[i+1])<<8|uint64(data[i+2]))
	}
	return
}

// FuzzWordParallelOps fuzzes arbitrary add/union/reset sequences through
// the word-parallel Bloom filter and the sorted-slice exact set, checking
// every intersection verdict against the bit-by-bit and map references.
func FuzzWordParallelOps(f *testing.F) {
	f.Add([]byte{0, 0, 53, 1, 0, 53})        // probe-collision addr on both sides
	f.Add([]byte{0, 0, 7, 2, 0, 0, 1, 0, 7}) // union then shared addr
	f.Add([]byte{0, 0, 9, 3, 0, 0, 1, 0, 9}) // reset erases A's side
	f.Add([]byte{1, 8, 2, 0, 8, 2, 2, 0, 0}) // high addresses + union
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, addrs := decodeWordOpsCase(data)
		a, b := NewBloomSet(DefaultBloomBits), NewBloomSet(DefaultBloomBits)
		ra, rb := newRefBloom(), newRefBloom()
		ea, eb := NewExactSet(), NewExactSet()
		ma, mb := refExact{}, refExact{}
		for i, op := range ops {
			addr := addrs[i]
			switch op {
			case 0:
				a.Add(addr)
				ra.add(addr)
				ea.Add(addr)
				ma[addr] = struct{}{}
			case 1:
				b.Add(addr)
				rb.add(addr)
				eb.Add(addr)
				mb[addr] = struct{}{}
			case 2:
				a.Union(b)
				ra.union(rb)
				ea.Union(eb)
				for x := range mb {
					ma[x] = struct{}{}
				}
			case 3:
				a.Reset()
				ra = newRefBloom()
				ea.Reset()
				ma = refExact{}
			}
			if got, want := a.Intersects(b), ra.intersects(rb); got != want {
				t.Fatalf("op %d: bloom word Intersects = %v, bit reference = %v", i, got, want)
			}
			if got, want := ea.Intersects(eb), ma.intersects(mb); got != want {
				t.Fatalf("op %d: exact slice Intersects = %v, map reference = %v", i, got, want)
			}
			if got, want := a.Empty(), ra.n == 0; got != want {
				t.Fatalf("op %d: bloom Empty = %v, reference = %v", i, got, want)
			}
			if got, want := ea.Empty(), len(ma) == 0; got != want {
				t.Fatalf("op %d: exact Empty = %v, reference = %v", i, got, want)
			}
		}
		sameBits(t, a, ra)
		sameBits(t, b, rb)
	})
}

// TestExactUnionMatchesMultisetModel drives random add/seal/union/self-union/
// reset sequences through ExactSet against a sorted-multiset model: after
// every step the set holds exactly the model's addresses, duplicates
// included, and a set that says it is sorted is.
func TestExactUnionMatchesMultisetModel(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	check := func(trial, step int, e *ExactSet, model []uint64) {
		t.Helper()
		got := slices.Clone(e.addrs)
		if e.sorted && !slices.IsSorted(got) {
			t.Fatalf("trial %d step %d: set claims sorted but holds %v", trial, step, got)
		}
		slices.Sort(got)
		if !slices.Equal(got, model) {
			t.Fatalf("trial %d step %d: set holds %v, model %v", trial, step, got, model)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		e := NewExactSet()
		var model []uint64
		for step := 0; step < 8; step++ {
			switch rng.Intn(5) {
			case 0:
				for _, a := range drawAddrs(rng) {
					e.Add(a)
					model = append(model, a)
				}
			case 1:
				e.seal()
			case 2:
				o := NewExactSet()
				for _, a := range drawAddrs(rng) {
					o.Add(a)
					model = append(model, a)
				}
				if rng.Intn(2) == 0 {
					o.seal()
				}
				e.Union(o)
			case 3:
				model = append(model, model...)
				e.Union(e)
			case 4:
				e.Reset()
				model = model[:0]
			}
			slices.Sort(model)
			check(trial, step, e, model)
		}
	}
}

// TestExactUnionReusesCapacity: the checker unions sealed signatures into
// an accumulator it resets and reuses, so once the accumulator has grown to
// hold them, a sorted union (self-union included) allocates nothing.
func TestExactUnionReusesCapacity(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	a, b := NewExactSet(), NewExactSet()
	for i := uint64(0); i < 40; i++ {
		a.Add(i * 3)
		b.Add(100 - i*2)
	}
	a.seal()
	b.seal()
	acc := NewExactSet()
	union := func() {
		acc.Reset()
		acc.Union(a)
		acc.Union(b)
		acc.Union(acc)
	}
	if n := testing.AllocsPerRun(100, union); n != 0 {
		t.Errorf("a warm sorted union makes %.1f allocations, want 0", n)
	}
	if len(acc.addrs) != 160 || !acc.sorted || !slices.IsSorted(acc.addrs) {
		t.Errorf("union holds %d addresses (sorted %v), want 160 in order", len(acc.addrs), acc.sorted)
	}
}
