package speccross

import "math/bits"

// dirtySet is the finished segment's dirty cells, one bit per state cell.
// Marking a span sets whole words at once, and the runs of set bits are
// what a commit or a rollback copies, so a segment that dirtied most of the
// image costs about one copy of it, and one that dirtied a few cells costs
// those cells plus a scan of len(words) words.
type dirtySet struct {
	words []uint64
	n     uint64 // cells
}

// resize makes the set n cells long, all clear.
func (d *dirtySet) resize(n int) {
	nw := (n + 63) / 64
	if cap(d.words) < nw {
		d.words = make([]uint64, nw)
	}
	d.words, d.n = d.words[:nw], uint64(n)
	clear(d.words)
}

// mark sets the cells [lo, hi) that lie inside the set; cells at or past
// its end (sentinel and out-of-range addresses) are ignored.
func (d *dirtySet) mark(lo, hi uint64) {
	hi = min(hi, d.n)
	if lo >= hi {
		return
	}
	i, j := lo/64, (hi-1)/64
	first, last := ^uint64(0)<<(lo%64), ^uint64(0)>>(63-(hi-1)%64)
	if i == j {
		d.words[i] |= first & last
		return
	}
	d.words[i] |= first
	for k := i + 1; k < j; k++ {
		d.words[k] = ^uint64(0)
	}
	d.words[j] |= last
}

// count returns how many cells are set.
func (d *dirtySet) count() int64 {
	var c int
	for _, w := range d.words {
		c += bits.OnesCount64(w)
	}
	return int64(c)
}

// next returns the first run [lo, hi) of set cells at or after cell from,
// or lo == hi == the set's length when there is none.
func (d *dirtySet) next(from uint64) (lo, hi uint64) {
	lo = d.scan(from, 0)
	if lo == d.n {
		return lo, lo
	}
	return lo, d.scan(lo, ^uint64(0))
}

// scan returns the first cell at or after from whose bit, XORed with flip,
// is set: the first set cell for flip 0, the first clear one for all ones.
// It returns the set's length when there is none.
func (d *dirtySet) scan(from, flip uint64) uint64 {
	if from >= d.n {
		return d.n
	}
	i := from / 64
	w := (d.words[i] ^ flip) & (^uint64(0) << (from % 64))
	for w == 0 {
		if i++; i == uint64(len(d.words)) {
			return d.n
		}
		w = d.words[i] ^ flip
	}
	return min(i*64+uint64(bits.TrailingZeros64(w)), d.n)
}

// dropHighest clears the highest set cell, if any: the broken commit and
// rollback of the chaos harness's skip-dirty-cell mutation.
func (d *dirtySet) dropHighest() {
	for i := len(d.words) - 1; i >= 0; i-- {
		if w := d.words[i]; w != 0 {
			d.words[i] = w &^ (1 << (63 - bits.LeadingZeros64(w)))
			return
		}
	}
}

// empty clears every cell.
func (d *dirtySet) empty() { clear(d.words) }
