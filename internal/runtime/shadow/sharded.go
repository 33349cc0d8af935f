package shadow

// This file adds the sharded shadow memory behind the sharded DOMORE
// scheduler (ROADMAP item 2): the address space is partitioned by hash
// across N per-shard stores so N scheduler lanes can perform dependence
// detection concurrently without any locking.
//
// Shard-ownership invariant: ShardOf is a pure function of (addr, shards),
// so every access to a given address — lookup and update alike — lands in
// the same shard for the lifetime of a run. A lane that owns shard s is
// therefore the *only* goroutine that ever touches shard s's store, which
// makes the per-shard stores single-writer structures exactly like the
// unsharded scheduler's store ("lock-free by ownership"). Correctness of
// sharded dependence detection follows: per address, the lane observes the
// same lookup/update sequence the single scheduler would.

// Mix is a splitmix64-style finalizer: an invertible mixer whose output
// bits all depend on all input bits. It is the hash behind ShardOf;
// exported so fault-injection and tests can reproduce shard placement.
func Mix(a uint64) uint64 {
	a ^= a >> 30
	a *= 0xbf58476d1ce4e5b9
	a ^= a >> 27
	a *= 0x94d049bb133111eb
	a ^= a >> 31
	return a
}

// ShardOf maps an address to its owning shard in [0, shards). The mapping
// uses the high output bits of Mix through a fixed-point multiply, so it is
// unbiased for any shard count, not just powers of two. Array-index address
// spaces are sequential — taking addr%shards would alias entire iteration
// stripes onto one shard — which is why the mixer runs first.
func ShardOf(addr uint64, shards int) int {
	h := Mix(addr) >> 32
	return int(h * uint64(shards) >> 32)
}

// Sharded partitions a shadow memory across per-shard stores by ShardOf.
// It implements Store — routing each call to the owning shard — so code
// that is agnostic to sharding (tests, stats, Reset between regions) can
// treat it as one store; the scheduler lanes instead call Shard once and
// operate on their own store directly, which is the lock-free hot path.
type Sharded struct {
	shards []Store
}

// NewSharded builds a sharded store with one sub-store per shard. mk
// constructs the store for each shard index; nil defaults to NewSparse.
func NewSharded(shards int, mk func(shard int) Store) *Sharded {
	if shards <= 0 {
		shards = 1
	}
	if mk == nil {
		mk = func(int) Store { return NewSparse() }
	}
	s := &Sharded{shards: make([]Store, shards)}
	for i := range s.shards {
		s.shards[i] = mk(i)
	}
	return s
}

// Shards reports the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns the store owning shard i. The caller must respect the
// shard-ownership invariant: only addresses with ShardOf(addr, Shards())
// == i may be looked up or updated through it, and only by one goroutine
// at a time.
func (s *Sharded) Shard(i int) Store { return s.shards[i] }

// Lookup implements Store by routing to the owning shard.
func (s *Sharded) Lookup(addr uint64) Entry {
	return s.shards[ShardOf(addr, len(s.shards))].Lookup(addr)
}

// Update implements Store by routing to the owning shard.
func (s *Sharded) Update(addr uint64, tid int32, iter int64) {
	s.shards[ShardOf(addr, len(s.shards))].Update(addr, tid, iter)
}

// Exchange implements Store by routing to the owning shard.
func (s *Sharded) Exchange(addr uint64, tid int32, iter int64) Entry {
	return s.shards[ShardOf(addr, len(s.shards))].Exchange(addr, tid, iter)
}

// Reset implements Store: every shard is cleared. Single-goroutine only
// (between region executions, like the other stores).
func (s *Sharded) Reset() {
	for _, sh := range s.shards {
		sh.Reset()
	}
}

// Len implements Store by summing the shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}
