package adaptive

import (
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

// deltaCells is a workload of read-modify-write tasks over a delta view:
// task t of every epoch rewrites cell t from its old value.
type deltaCells struct {
	epochs, tasks int
	state         []int64
}

func (d *deltaCells) body(e, t int)                              { d.state[t] = d.state[t]*3 + int64(e*d.tasks+t) + 1 }
func (d *deltaCells) Invocations() int                           { return d.epochs }
func (d *deltaCells) Iterations(int) int                         { return d.tasks }
func (d *deltaCells) Sequential(int)                             {}
func (d *deltaCells) ComputeAddr(_, it int, b []uint64) []uint64 { return append(b, uint64(it)) }
func (d *deltaCells) Execute(inv, it, _ int)                     { d.body(inv, it) }
func (d *deltaCells) Epochs() int                                { return d.epochs }
func (d *deltaCells) Tasks(int) int                              { return d.tasks }
func (d *deltaCells) Snapshot() any                              { return append([]int64(nil), d.state...) }
func (d *deltaCells) Restore(s any)                              { copy(d.state, s.([]int64)) }
func (d *deltaCells) StateLen() int                              { return len(d.state) }
func (d *deltaCells) ReadCell(c uint64) int64                    { return d.state[c] }
func (d *deltaCells) WriteCell(c uint64, v int64)                { d.state[c] = v }
func (d *deltaCells) AddrCells(a uint64) (lo, hi uint64)         { return a, a + 1 }
func (d *deltaCells) Run(e, t, _ int, sig *signature.Signature) {
	if sig != nil {
		sig.Read(uint64(t))
		sig.Write(uint64(t))
	}
	d.body(e, t)
}

// TestInlineWindowInvalidatesCheckpointImage: a posted SPECCROSS window
// leaves its checkpoint image on the runtime, an inline window then
// rewrites every cell untracked, and the next posted SPECCROSS window
// misspeculates and restores its dirty cells. Unless the inline window told
// the runtime the state changed, the restore takes the image from before
// it, and the re-executed window starts from the wrong values.
func TestInlineWindowInvalidatesCheckpointImage(t *testing.T) {
	const epochs, tasks, nw = 12, 8, 2
	ref := &deltaCells{epochs: epochs, tasks: tasks, state: make([]int64, tasks)}
	for e := 0; e < epochs; e++ {
		for k := 0; k < tasks; k++ {
			ref.body(e, k)
		}
	}
	rt := engine.New(nw)
	defer rt.Close()
	w := &deltaCells{epochs: epochs, tasks: tasks, state: make([]int64, tasks)}
	cfg := Config{Workers: nw, Window: 4, Spec: speccross.Config{ForceMisspecEpoch: 9}}
	cfg.fill()
	c := newController(rt, w, cfg, true)
	var s Sample
	c.post(EngineSpecCross, 0, 4, &s)
	if at := c.inline(EngineSpecCross, 4, 8, 0, &s); at != 8 {
		t.Fatalf("inline window stopped at epoch %d, want 8", at)
	}
	c.post(EngineSpecCross, 8, 12, &s)
	if c.stats.Spec.Misspeculations != 1 || c.stats.Spec.DeltaRestores != 1 {
		t.Fatalf("%d misspeculations, %d delta restores; want the forced one restored from the image",
			c.stats.Spec.Misspeculations, c.stats.Spec.DeltaRestores)
	}
	for i, v := range ref.state {
		if w.state[i] != v {
			t.Fatalf("state[%d] = %d, sequential = %d: the restore used an image from before the inline window", i, w.state[i], v)
		}
	}
	if s.Tasks != epochs*tasks || s.Inline != 4*tasks {
		t.Errorf("windows ran %d tasks, %d inline; want %d, %d", s.Tasks, s.Inline, epochs*tasks, 4*tasks)
	}
}
