package adaptive

import (
	"sync/atomic"
	"testing"
	"time"

	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
)

// TestPriceTest pins the rule on synthetic prices: an unpriced engine is
// posted; a priced one is posted when cheaper than inline and runs inline
// otherwise; and each verdict is re-tried once the windows it chose have
// taken engine.ProbeShare times what the other mode lost or saved over the
// engine's latest posted window.
func TestPriceTest(t *testing.T) {
	const n = 100 // tasks per window
	var p prices
	if !p.post(EngineDomore) {
		t.Fatal("an unpriced engine ran inline")
	}
	// DOMORE costs 3 µs a task, inline 1 µs: DOMORE lost 200 µs over its
	// window, so inline holds until the inline windows have taken 16× that.
	p.ranPosted(EngineDomore, 300*time.Microsecond, n)
	p.ranInline(100*time.Microsecond, n)
	loss := engine.ProbeShare * 200 * time.Microsecond
	windows := 1
	for p.inlined[EngineDomore] < loss {
		if p.post(EngineDomore) {
			t.Fatalf("losing DOMORE posted after %v of inline windows, want %v", p.inlined[EngineDomore], loss)
		}
		p.ranInline(100*time.Microsecond, n)
		windows++
	}
	if !p.post(EngineDomore) {
		t.Fatalf("losing DOMORE still inline after %v of inline windows", p.inlined[EngineDomore])
	}
	if want := int(loss / (100 * time.Microsecond)); windows != want {
		t.Errorf("re-priced DOMORE after %d inline windows, want %d", windows, want)
	}
	// Now DOMORE costs 0.5 µs a task: it wins by 50 µs a window, so it is
	// posted until its windows have taken 16× that, then inline re-prices.
	gain := engine.ProbeShare * 50 * time.Microsecond
	p.ranPosted(EngineDomore, 50*time.Microsecond, n)
	for p.posted[EngineDomore] < gain {
		if !p.post(EngineDomore) {
			t.Fatalf("winning DOMORE ran inline after %v of its windows, want %v", p.posted[EngineDomore], gain)
		}
		p.ranPosted(EngineDomore, 50*time.Microsecond, n)
	}
	if p.post(EngineDomore) {
		t.Fatalf("winning DOMORE still posted after %v of its windows", p.posted[EngineDomore])
	}
	// Another engine keeps its own price.
	if !p.post(EngineSpecCross) {
		t.Fatal("unpriced SPECCROSS ran inline")
	}
}

// TestGuardedWindowPricesInline: a window an engine's guard ran prices
// inline at the guard's measured rate. A wholly inline one does so in
// place of its wall time, which carries the guard's sampling, and prices
// the engine at the guard's estimate, so the next window's test weighs
// the two rates the guard weighed. One that posted anything prices the
// engine at its wall time and sets inline only while inline is unpriced,
// so a second window may be posted at once when the engine won.
func TestGuardedWindowPricesInline(t *testing.T) {
	const n = 100 // tasks per window
	var p prices
	// The guard measured inline at 1 µs a task and bounded DOMORE at 3 µs,
	// and its sampling made the window take 2 µs a task.
	p.ranGuarded(EngineDomore, 200*time.Microsecond, n, n, 1000, 3000)
	if p.inline != 1000 || p.engine[EngineDomore] != 3000 {
		t.Fatalf("wholly inline window priced inline %.0f, DOMORE %.0f; want the guard's 1000 and 3000", p.inline, p.engine[EngineDomore])
	}
	if p.post(EngineDomore) {
		t.Error("DOMORE, bounded at 3× inline, posted the next window")
	}
	// SPECCROSS's guard ran 10 tasks inline at 2 µs, then posted the rest:
	// 60 µs for the window, below inline's price, which it leaves alone.
	p.ranGuarded(EngineSpecCross, 60*time.Microsecond, n, 10, 2000, 500)
	if p.inline != 1000 || p.engine[EngineSpecCross] != 600 {
		t.Fatalf("split window priced inline %.0f, SPECCROSS %.0f; want 1000 kept and 600", p.inline, p.engine[EngineSpecCross])
	}
	// On a fresh run, a split window is the first to price inline.
	var q prices
	q.ranGuarded(EngineSpecCross, 60*time.Microsecond, n, 10, 2000, 500)
	if q.inline != 2000 || !q.post(EngineSpecCross) {
		t.Errorf("first split window priced inline %.0f and posted the next window %v; want 2000 and true", q.inline, q.post(EngineSpecCross))
	}
}

// deltaCells is a workload of read-modify-write tasks with a cell map:
// task t of every epoch rewrites cell t from its old value. With faultEpoch
// set, task 0 of that epoch fails once when it runs speculatively, the way
// the chaos harness's injected faults do: it panics, after scribbling over
// cell 0, which it has recorded as written, when tear is set.
type deltaCells struct {
	epochs, tasks int
	state         []int64
	faultEpoch    int
	tear          bool
	fired         atomic.Bool
}

func (d *deltaCells) body(e, t int)                              { d.state[t] = d.state[t]*3 + int64(e*d.tasks+t) + 1 }
func (d *deltaCells) Invocations() int                           { return d.epochs }
func (d *deltaCells) Iterations(int) int                         { return d.tasks }
func (d *deltaCells) Sequential(int)                             {}
func (d *deltaCells) ComputeAddr(_, it int, b []uint64) []uint64 { return append(b, uint64(it)) }
func (d *deltaCells) Execute(inv, it, _ int)                     { d.body(inv, it) }
func (d *deltaCells) Epochs() int                                { return d.epochs }
func (d *deltaCells) Tasks(int) int                              { return d.tasks }
func (d *deltaCells) StateLen() int                              { return len(d.state) }
func (d *deltaCells) LoadCells(lo uint64, dst []int64)           { copy(dst, d.state[lo:]) }
func (d *deltaCells) StoreCells(lo uint64, src []int64)          { copy(d.state[lo:], src) }
func (d *deltaCells) CellMap() func(addr uint64) (lo, hi uint64) {
	return speccross.IdentityCells
}
func (d *deltaCells) Run(e, t, _ int, sig *signature.Signature) {
	if sig != nil {
		sig.Read(uint64(t))
		sig.Write(uint64(t))
		if e == d.faultEpoch && t == 0 && d.fired.CompareAndSwap(false, true) {
			if d.tear {
				d.state[0] += 0x7e7e7e01
			}
			panic("injected speculative fault")
		}
	}
	d.body(e, t)
}

// TestInlineWindowInvalidatesCheckpointImage: a posted SPECCROSS window
// leaves its checkpoint image on the runtime, an inline window then
// rewrites every cell untracked, and the next posted SPECCROSS window
// misspeculates — forced, by a panicking task, or by one that tore a cell
// before it panicked — and restores its dirty cells. Unless the inline
// window told the runtime the state changed, the restore takes the image
// from before it, and the re-executed window starts from the wrong values.
func TestInlineWindowInvalidatesCheckpointImage(t *testing.T) {
	const epochs, tasks, nw = 12, 8, 2
	ref := &deltaCells{epochs: epochs, tasks: tasks, state: make([]int64, tasks)}
	for e := 0; e < epochs; e++ {
		for k := 0; k < tasks; k++ {
			ref.body(e, k)
		}
	}
	for _, tc := range []struct {
		name       string
		force      int // speccross.Config.ForceMisspecEpoch
		faultEpoch int
		tear       bool
	}{
		{"forced", 9, -1, false},
		{"panic", 0, 9, false},
		{"torn-write", 0, 9, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := engine.New(nw)
			defer rt.Close()
			w := &deltaCells{epochs: epochs, tasks: tasks, state: make([]int64, tasks), faultEpoch: tc.faultEpoch, tear: tc.tear}
			cfg := Config{Workers: nw, Window: 4, Spec: speccross.Config{ForceMisspecEpoch: tc.force}}
			cfg.fill()
			c := newController(rt, w, cfg, true)
			var s Sample
			c.post(EngineSpecCross, 0, 4, false, &s)
			c.inline(EngineSpecCross, 4, 8, &s)
			c.post(EngineSpecCross, 8, 12, false, &s)
			if c.stats.Spec.Misspeculations != 1 {
				t.Fatalf("%d misspeculations; want the one of epoch 9 restored from the image",
					c.stats.Spec.Misspeculations)
			}
			if tc.faultEpoch >= 0 && !w.fired.Load() {
				t.Fatal("the speculative fault never fired")
			}
			if c.stats.Spec.CheckpointNs <= 0 {
				t.Errorf("Spec.CheckpointNs = %d after two posted windows' captures, commits and rollback", c.stats.Spec.CheckpointNs)
			}
			for i, v := range ref.state {
				if w.state[i] != v {
					t.Fatalf("state[%d] = %d, sequential = %d: the restore used an image from before the inline window", i, w.state[i], v)
				}
			}
			if s.Tasks != epochs*tasks || s.Inline != 4*tasks {
				t.Errorf("windows ran %d tasks, %d inline; want %d, %d", s.Tasks, s.Inline, epochs*tasks, 4*tasks)
			}
		})
	}
}
