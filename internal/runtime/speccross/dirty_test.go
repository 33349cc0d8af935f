package speccross

import (
	"slices"
	"testing"

	"crossinv/internal/runtime/signature"
)

// spanCells is a workload over a plain cell array whose signature address
// a covers cells [a·stride, a·stride+width): the identity mapping (1, 1),
// block-granular addresses (b, b) and overlapping spans (s < w) — or, with
// noMap set, no cell map at all.
type spanCells struct {
	state         []int64
	stride, width uint64
	noMap         bool
}

func (w *spanCells) Epochs() int                             { return 0 }
func (w *spanCells) Tasks(int) int                           { return 0 }
func (w *spanCells) Run(int, int, int, *signature.Signature) {}
func (w *spanCells) StateLen() int                           { return len(w.state) }
func (w *spanCells) LoadCells(lo uint64, dst []int64)        { copy(dst, w.state[lo:lo+uint64(len(dst))]) }
func (w *spanCells) StoreCells(lo uint64, src []int64)       { copy(w.state[lo:lo+uint64(len(src))], src) }
func (w *spanCells) span(a uint64) (uint64, uint64)          { return a * w.stride, a*w.stride + w.width }
func (w *spanCells) CellMap() func(addr uint64) (lo, hi uint64) {
	if w.noMap {
		return nil
	}
	return w.span
}

// FuzzDirtyCopy checks the bitmap checkpointer against a per-cell model:
// over a random state length, span shape — no cell map among them — and
// set of worker write logs (with sentinel and out-of-range addresses, and
// entries repeated within and across logs), a commit must refresh exactly
// the spanned cells of the base image, a rollback must rewrite exactly
// those cells of the state, both must report the number of distinct
// spanned cells, and each must leave the bitmap empty for the next
// segment. With no cell map, every cell counts as spanned.
func FuzzDirtyCopy(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 7, 1, 200, 5})
	f.Add([]byte{2, 130, 4, 3, 10, 10, 11, 255, 12, 64, 63, 1, 0})
	f.Add([]byte{1, 64, 1, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{3, 90, 5, 0, 1, 2, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		w := &spanCells{state: make([]int64, 1+int(data[1])*3+int(data[2]%3))}
		switch data[0] % 4 {
		case 0:
			w.stride, w.width = 1, 1
		case 1:
			w.stride = 1 + uint64(data[3]%70)
			w.width = w.stride
		case 2:
			w.stride = 1 + uint64(data[3]%5)
			w.width = w.stride + 1 + uint64(data[3]/5%90)
		case 3:
			w.noMap = true
		}
		n := len(w.state)
		st := &state{local: make([]workerLocal, 1+int(data[2]/3%4))}
		for i, b := range data[4:] {
			var a uint64
			switch {
			case b == 255:
				a = 1 << 40 // a sentinel conflict address
			case b >= 240:
				a = uint64(n) + uint64(b) // past the state at any stride
			default:
				a = uint64(b) % uint64(n)
			}
			l := &st.local[i%len(st.local)]
			l.dlog = append(l.dlog, a)
			if b%7 == 0 { // the same entry in the next worker's log
				st.local[(i+1)%len(st.local)].dlog = append(st.local[(i+1)%len(st.local)].dlog, a)
			}
		}
		want := make([]bool, n)
		var wantCells int64
		mark := func(lo, hi uint64) {
			for c := lo; c < hi && c < uint64(n); c++ {
				if !want[c] {
					want[c] = true
					wantCells++
				}
			}
		}
		if w.noMap {
			mark(0, uint64(n)) // every cell, whatever the logs hold
		}
		for _, l := range st.local {
			for _, a := range l.dlog {
				if !w.noMap {
					mark(w.span(a))
				}
			}
		}
		for c := range w.state {
			w.state[c] = int64(c) + 1
		}

		// Capture, overwrite every cell, commit.
		st.base = make([]int64, n)
		st.dirty.resize(n)
		w.LoadCells(0, st.base)
		before := slices.Clone(w.state)
		for c := range w.state {
			w.state[c] = -int64(c) - 1
		}
		if got := st.copyDirty(w, w.CellMap(), true); got != wantCells {
			t.Fatalf("commit counted %d cells, model %d", got, wantCells)
		}
		for c := range st.base {
			exp := before[c]
			if want[c] {
				exp = w.state[c]
			}
			if st.base[c] != exp {
				t.Fatalf("commit: base[%d] = %d, model %d (dirty %v)", c, st.base[c], exp, want[c])
			}
		}
		if st.dirty.count() != 0 {
			t.Fatalf("commit left %d cells marked", st.dirty.count())
		}

		// Roll the same logs back over fresh values.
		for c := range w.state {
			w.state[c] = int64(c) * 1000
		}
		if got := st.copyDirty(w, w.CellMap(), false); got != wantCells {
			t.Fatalf("rollback counted %d cells, model %d", got, wantCells)
		}
		for c := range w.state {
			exp := int64(c) * 1000
			if want[c] {
				exp = st.base[c]
			}
			if w.state[c] != exp {
				t.Fatalf("rollback: state[%d] = %d, model %d (dirty %v)", c, w.state[c], exp, want[c])
			}
		}
		if st.dirty.count() != 0 {
			t.Fatalf("rollback left %d cells marked", st.dirty.count())
		}
	})
}

// TestDirtySetRuns pins the run walk on word boundaries: a run that fills
// whole words is one run, and runs that end or start at a word edge are
// found with the right bounds.
func TestDirtySetRuns(t *testing.T) {
	var d dirtySet
	d.resize(300)
	d.mark(5, 6)
	d.mark(63, 64)
	d.mark(64, 200)
	d.mark(250, 1<<40)
	d.mark(1<<40, 1<<40+1)
	var got [][2]uint64
	for lo, hi := d.next(0); lo < hi; lo, hi = d.next(hi) {
		got = append(got, [2]uint64{lo, hi})
	}
	want := [][2]uint64{{5, 6}, {63, 200}, {250, 300}}
	if !slices.Equal(got, want) {
		t.Fatalf("runs %v, want %v", got, want)
	}
	if c := d.count(); c != 1+137+50 {
		t.Fatalf("count %d, want %d", c, 1+137+50)
	}
	d.dropHighest()
	if lo, hi := d.next(250); lo != 250 || hi != 299 {
		t.Fatalf("after dropHighest the last run is [%d, %d), want [250, 299)", lo, hi)
	}
}
