// Package signature implements the memory-access signatures SPECCROSS uses
// for misspeculation detection (§4.2.1). A signature is an approximate,
// constant-space summary of the addresses a task touched; two tasks from
// different epochs conflict if their signatures indicate a write/write,
// write/read, or read/write overlap.
//
// Two summary schemes are provided, matching the paper:
//
//   - Range: the default scheme, recording only the minimum and maximum
//     address accessed. Cheap and effective when accesses are clustered.
//   - Bloom: a Bloom filter over addresses, with a configurable bit width.
//     Better false-positive behaviour for random access patterns.
//
// Both schemes are sound: they may report a conflict where none exists
// (false positive, causing a needless misspeculation) but never miss a true
// overlap.
package signature

import (
	"fmt"
	"math/bits"
	"slices"
)

// Kind selects a summary scheme.
type Kind int

const (
	// Range records [min,max] address bounds (the paper's default).
	Range Kind = iota
	// Bloom records a Bloom filter of addresses.
	Bloom
	// Exact records the precise address set. It is never wrong but costs
	// memory proportional to the task's footprint; §4.2.3 notes the
	// runtime accepts user-provided signature generators, and exact sets
	// are the right generator for tasks whose read sets saturate a Bloom
	// filter (FLUIDANIMATE's grid rebuild reads every cell's bucket
	// header). The profiler (§4.4) also uses it so that minimum
	// dependence distances are not contaminated by false positives.
	Exact
)

// String returns the scheme name.
func (k Kind) String() string {
	switch k {
	case Range:
		return "range"
	case Bloom:
		return "bloom"
	case Exact:
		return "exact"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Set summarizes a set of addresses. Implementations must be sound: if an
// address was Added to both of two sets, Intersects must report true.
type Set interface {
	// Add records one address.
	Add(addr uint64)
	// Intersects reports whether the two summaries may share an address.
	// The argument must be of the same dynamic type as the receiver.
	Intersects(other Set) bool
	// Union folds other's addresses into the receiver, so that the
	// receiver intersects everything other intersected. The argument must
	// be of the same dynamic type as the receiver. The checker uses
	// unions as a conservative per-epoch pre-filter: no conflict with the
	// union of a set of signatures implies no conflict with any of them.
	Union(other Set)
	// Empty reports whether no address has been recorded.
	Empty() bool
	// Reset returns the set to empty for reuse.
	Reset()
}

// NewSet returns an empty Set of the given kind.
func NewSet(k Kind) Set {
	switch k {
	case Range:
		return &RangeSet{}
	case Bloom:
		return NewBloomSet(DefaultBloomBits)
	case Exact:
		return NewExactSet()
	default:
		panic(fmt.Sprintf("signature: unknown kind %d", int(k)))
	}
}

// RangeSet summarizes addresses by their inclusive [Min,Max] envelope.
type RangeSet struct {
	min, max uint64
	nonEmpty bool
}

// Add implements Set.
func (r *RangeSet) Add(addr uint64) {
	if !r.nonEmpty {
		r.min, r.max, r.nonEmpty = addr, addr, true
		return
	}
	if addr < r.min {
		r.min = addr
	}
	if addr > r.max {
		r.max = addr
	}
}

// Intersects implements Set.
func (r *RangeSet) Intersects(other Set) bool {
	o, ok := other.(*RangeSet)
	if !ok {
		panic("signature: mixed signature kinds")
	}
	if !r.nonEmpty || !o.nonEmpty {
		return false
	}
	return r.min <= o.max && o.min <= r.max
}

// Union implements Set: the merged envelope covers both inputs.
func (r *RangeSet) Union(other Set) {
	o, ok := other.(*RangeSet)
	if !ok {
		panic("signature: mixed signature kinds")
	}
	if !o.nonEmpty {
		return
	}
	if !r.nonEmpty {
		*r = *o
		return
	}
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
}

// Empty implements Set.
func (r *RangeSet) Empty() bool { return !r.nonEmpty }

// Reset implements Set.
func (r *RangeSet) Reset() { *r = RangeSet{} }

// Bounds returns the recorded envelope; ok is false if the set is empty.
func (r *RangeSet) Bounds() (min, max uint64, ok bool) {
	return r.min, r.max, r.nonEmpty
}

// DefaultBloomBits is the default Bloom filter width in bits. 2048 bits
// (four cache lines) holds the intersection-test false-positive rate low
// for the task sizes in Table 5.3 (tens of accesses per task); the
// intersection test needs much sparser filters than membership queries do.
const DefaultBloomBits = 2048

// bloomHashes is the number of hash functions (k) per address.
const bloomHashes = 3

// BloomSet summarizes addresses with a Bloom filter.
type BloomSet struct {
	bits  []uint64
	nbits uint64
	n     int // addresses added
}

// NewBloomSet returns a Bloom summary with the given width in bits, rounded
// up to a multiple of 64.
func NewBloomSet(bits int) *BloomSet {
	if bits <= 0 {
		panic(fmt.Sprintf("signature: invalid bloom width %d", bits))
	}
	words := (bits + 63) / 64
	return &BloomSet{bits: make([]uint64, words), nbits: uint64(words * 64)}
}

// hash mixes addr with a per-probe seed (splitmix64 finalizer).
func bloomHash(addr, seed uint64) uint64 {
	x := addr + seed*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add implements Set. The filter is partitioned: probe i draws from its
// own nbits/k segment of the bit vector, so every address sets exactly
// bloomHashes distinct bits. With a single shared bit space two probes of
// the same address can collide (addr 53 mod 2048 sets only two distinct
// bits), and Intersects' >= k common-bit threshold would then miss a true
// overlap — an unsound signature.
func (b *BloomSet) Add(addr uint64) {
	seg := b.nbits / bloomHashes
	for i := uint64(0); i < bloomHashes; i++ {
		bit := i*seg + bloomHash(addr, i+1)%seg
		b.bits[bit/64] |= 1 << (bit % 64)
	}
	b.n++
}

// Intersects implements Set.
//
// A shared element sets the same k distinct bits (one per partition
// segment) in both filters, so requiring at least k common bits in the
// AND of the bit vectors is sound: it may false-positive on bits set by
// different elements, but can never miss a true overlap. The loop is a
// whole-word sweep: one AND plus one popcount instruction per 64 bits.
func (b *BloomSet) Intersects(other Set) bool {
	o, ok := other.(*BloomSet)
	if !ok {
		panic("signature: mixed signature kinds")
	}
	if b.nbits != o.nbits {
		panic("signature: mismatched bloom widths")
	}
	if b.n == 0 || o.n == 0 {
		return false
	}
	common := 0
	for i, w := range b.bits {
		common += bits.OnesCount64(w & o.bits[i])
		if common >= bloomHashes {
			return true
		}
	}
	return false
}

// Union implements Set: a whole-word OR of the bit vectors. The union of
// two partitioned filters is the filter that would have resulted from
// adding both address sets, so all soundness properties carry over.
func (b *BloomSet) Union(other Set) {
	o, ok := other.(*BloomSet)
	if !ok {
		panic("signature: mixed signature kinds")
	}
	if b.nbits != o.nbits {
		panic("signature: mismatched bloom widths")
	}
	for i, w := range o.bits {
		b.bits[i] |= w
	}
	b.n += o.n
}

// Empty implements Set.
func (b *BloomSet) Empty() bool { return b.n == 0 }

// Reset implements Set.
func (b *BloomSet) Reset() {
	clear(b.bits)
	b.n = 0
}

// Signature is the per-task access summary: separate read and write sets so
// the checker can distinguish flow/anti/output conflicts from harmless
// read/read sharing.
type Signature struct {
	Reads  Set
	Writes Set
	// WriteLog, when non-nil, additionally records every written address
	// in call order. The SPECCROSS engine installs a log buffer here while
	// running a task under incremental checkpointing, then harvests it as
	// the task's contribution to the segment's dirty set; the checker
	// never reads it. Everyone else leaves it nil and pays one pointer
	// compare per Write.
	WriteLog []uint64
}

// New returns an empty Signature using the given scheme for both sets.
func New(k Kind) *Signature {
	return &Signature{Reads: NewSet(k), Writes: NewSet(k)}
}

// NewBatch returns n empty Signatures of the given kind backed by batch
// allocations: one slice of set headers and (for Bloom) one contiguous bit
// arena, instead of 3–5 small allocations per signature. The SPECCROSS
// workers grab signatures in blocks from here, which is what moves the
// per-task allocation count to O(1/blockSize).
func NewBatch(k Kind, n int) []Signature {
	sigs := make([]Signature, n)
	switch k {
	case Range:
		sets := make([]RangeSet, 2*n)
		for i := range sigs {
			sigs[i].Reads, sigs[i].Writes = &sets[2*i], &sets[2*i+1]
		}
	case Bloom:
		words := DefaultBloomBits / 64
		sets := make([]BloomSet, 2*n)
		arena := make([]uint64, 2*n*words)
		for i := range sets {
			sets[i].bits = arena[i*words : (i+1)*words : (i+1)*words]
			sets[i].nbits = uint64(words * 64)
		}
		for i := range sigs {
			sigs[i].Reads, sigs[i].Writes = &sets[2*i], &sets[2*i+1]
		}
	case Exact:
		sets := make([]ExactSet, 2*n)
		for i := range sigs {
			sigs[i].Reads, sigs[i].Writes = &sets[2*i], &sets[2*i+1]
		}
	default:
		panic(fmt.Sprintf("signature: unknown kind %d", int(k)))
	}
	return sigs
}

// Read records a load of addr.
func (s *Signature) Read(addr uint64) { s.Reads.Add(addr) }

// Write records a store to addr.
func (s *Signature) Write(addr uint64) {
	s.Writes.Add(addr)
	if s.WriteLog != nil {
		s.WriteLog = append(s.WriteLog, addr)
	}
}

// Reset empties both sets for reuse. WriteLog is detached, not truncated:
// its backing array belongs to whoever installed it.
func (s *Signature) Reset() {
	s.Reads.Reset()
	s.Writes.Reset()
	s.WriteLog = nil
}

// Empty reports whether the task recorded no accesses at all.
func (s *Signature) Empty() bool { return s.Reads.Empty() && s.Writes.Empty() }

// Seal finalizes the signature for concurrent read-only use. Exact sets
// sort lazily on first Intersects; sealing forces that sort while the
// signature still has a single owner, so later comparisons from multiple
// checker shards are pure reads. Range and Bloom sets need no sealing.
func (s *Signature) Seal() {
	if e, ok := s.Reads.(*ExactSet); ok {
		e.seal()
	}
	if e, ok := s.Writes.(*ExactSet); ok {
		e.seal()
	}
}

// Union folds other into the receiver set-wise.
func (s *Signature) Union(other *Signature) {
	s.Reads.Union(other.Reads)
	s.Writes.Union(other.Writes)
}

// Conflicts reports whether executing the receiver's task and other's task
// on opposite sides of a (removed) barrier could have violated a dependence:
// any write/write, write/read, or read/write overlap.
func (s *Signature) Conflicts(other *Signature) bool {
	if s.Writes.Intersects(other.Writes) {
		return true
	}
	if s.Writes.Intersects(other.Reads) {
		return true
	}
	if s.Reads.Intersects(other.Writes) {
		return true
	}
	return false
}

// ExactSet records the precise address set; Intersects is never a false
// positive (nor a false negative). The representation is an append-only
// slice (duplicates allowed) sorted lazily on first Intersects, which
// replaces a map insert per access with an append and a map iteration per
// comparison with a linear merge scan.
//
// Lazy sorting mutates the set, so an ExactSet shared between goroutines
// must be sealed (Signature.Seal) while it still has a single owner;
// afterwards Intersects is read-only.
type ExactSet struct {
	addrs  []uint64
	sorted bool
}

// NewExactSet returns an empty exact summary.
func NewExactSet() *ExactSet {
	return &ExactSet{sorted: true}
}

// Add implements Set.
func (e *ExactSet) Add(addr uint64) {
	if e.sorted && len(e.addrs) > 0 && addr < e.addrs[len(e.addrs)-1] {
		e.sorted = false
	}
	e.addrs = append(e.addrs, addr)
}

func (e *ExactSet) seal() {
	if !e.sorted {
		slices.Sort(e.addrs)
		e.sorted = true
	}
}

// Intersects implements Set: a merge scan over the two sorted slices.
func (e *ExactSet) Intersects(other Set) bool {
	o, ok := other.(*ExactSet)
	if !ok {
		panic("signature: mixed signature kinds")
	}
	e.seal()
	o.seal()
	a, b := e.addrs, o.addrs
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Union implements Set. When both sides are already sorted (the common
// case in the checker, which seals signatures before logging and unions
// them into an always-sorted accumulator) the result is merged from the
// back into the receiver's own grown slice and stays sorted, so no re-sort
// is ever needed on that path and an accumulator with room to spare
// allocates nothing.
func (e *ExactSet) Union(other Set) {
	o, ok := other.(*ExactSet)
	if !ok {
		panic("signature: mixed signature kinds")
	}
	if len(o.addrs) == 0 {
		return
	}
	if len(e.addrs) == 0 {
		e.addrs = append(e.addrs[:0], o.addrs...)
		e.sorted = o.sorted
		return
	}
	if e.sorted && o.sorted {
		// src is taken before the grow: on a self-union (o == e) it is the
		// receiver's old prefix, which the merge can share because it
		// writes position i+j+1 only after reading positions i and j, and
		// reads nothing above them again.
		src := o.addrs
		i, j := len(e.addrs)-1, len(src)-1
		e.addrs = slices.Grow(e.addrs, len(src))[:len(e.addrs)+len(src)]
		for k := len(e.addrs) - 1; j >= 0; k-- {
			if i >= 0 && e.addrs[i] > src[j] {
				e.addrs[k] = e.addrs[i]
				i--
			} else {
				e.addrs[k] = src[j]
				j--
			}
		}
		return
	}
	e.addrs = append(e.addrs, o.addrs...)
	e.sorted = false
}

// Empty implements Set.
func (e *ExactSet) Empty() bool { return len(e.addrs) == 0 }

// Reset implements Set.
func (e *ExactSet) Reset() {
	e.addrs = e.addrs[:0]
	e.sorted = true
}
