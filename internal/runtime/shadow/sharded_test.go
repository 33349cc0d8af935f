package shadow

import "testing"

// TestShardOfStableAndInRange pins the two properties the scheduler lanes
// rely on: ShardOf is a pure function (the shard-ownership invariant) and
// its result is always in [0, shards), for shard counts that are not
// powers of two as well.
func TestShardOfStableAndInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7, 16} {
		for addr := uint64(0); addr < 10000; addr++ {
			s := ShardOf(addr, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", addr, shards, s)
			}
			if again := ShardOf(addr, shards); again != s {
				t.Fatalf("ShardOf(%d, %d) unstable: %d then %d", addr, shards, s, again)
			}
		}
	}
}

// TestShardOfSpreadsSequentialAddresses guards the reason Mix exists: array
// index spaces are sequential, and a sharding that stripes them onto one
// shard would serialize the lanes. Require every shard to get a reasonable
// cut of a sequential range.
func TestShardOfSpreadsSequentialAddresses(t *testing.T) {
	const n, shards = 1 << 14, 4
	var hist [shards]int
	for addr := uint64(0); addr < n; addr++ {
		hist[ShardOf(addr, shards)]++
	}
	for s, c := range hist {
		if c < n/shards/2 || c > n/shards*2 {
			t.Errorf("shard %d got %d of %d sequential addresses (ideal %d)", s, c, n, n/shards)
		}
	}
}

// TestShardedAgreesWithFlat replays one op log on a Sharded store and a
// flat Sparse store; Lookup results, Len, and Reset must agree throughout,
// and every address must route to the shard ShardOf names.
func TestShardedAgreesWithFlat(t *testing.T) {
	sh := NewSharded(3, nil)
	flat := NewSparse()
	rng := uint64(12345)
	for i := 0; i < 5000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		addr := rng >> 40 // small space so updates collide
		tid := int32(rng>>8) % 4
		iter := int64(i)
		if got, want := sh.Lookup(addr), flat.Lookup(addr); got != want {
			t.Fatalf("op %d: Sharded.Lookup(%d) = %+v, Sparse = %+v", i, addr, got, want)
		}
		if got := sh.Shard(ShardOf(addr, sh.Shards())).Lookup(addr); got != flat.Lookup(addr) {
			t.Fatalf("op %d: owning shard disagrees with flat store at %d", i, addr)
		}
		sh.Update(addr, tid, iter)
		flat.Update(addr, tid, iter)
		if sh.Len() != flat.Len() {
			t.Fatalf("op %d: Sharded.Len = %d, Sparse.Len = %d", i, sh.Len(), flat.Len())
		}
	}
	sh.Reset()
	if sh.Len() != 0 {
		t.Fatalf("Len = %d after Reset", sh.Len())
	}
}

// TestShardedDenseShards exercises the mk constructor: each Dense sub-store
// covers the whole address bound and holds the addresses routed to it.
func TestShardedDenseShards(t *testing.T) {
	sh := NewSharded(2, func(int) Store { return NewDense(64) })
	for a := uint64(0); a < 64; a++ {
		sh.Update(a, int32(a%3), int64(a))
	}
	for a := uint64(0); a < 64; a++ {
		if e := sh.Lookup(a); e.Tid != int32(a%3) || e.Iter != int64(a) {
			t.Fatalf("Lookup(%d) = %+v", a, e)
		}
	}
	if sh.Len() != 64 || sh.Shard(0).Len()+sh.Shard(1).Len() != 64 || sh.Shard(0).Len() == 0 || sh.Shard(1).Len() == 0 {
		t.Fatalf("Len = %d (shards %d + %d), want 64 split across both", sh.Len(), sh.Shard(0).Len(), sh.Shard(1).Len())
	}
}
