package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"crossinv/internal/runtime/adaptive"
	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/queue"
	"crossinv/internal/runtime/shadow"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/runtime/trace"
	"crossinv/internal/workloads"
)

// Options configures one harness run.
type Options struct {
	// N is the number of timed samples per cell (default 5).
	N int
	// Warmup is the number of untimed runs before sampling (default 1).
	Warmup int
	// Workers is the engine worker count (default 4).
	Workers int
	// Scale is the workload scale passed to Entry.Make (default 1).
	Scale int
	// Filter, when non-nil, selects cells by ID; nil runs everything.
	Filter func(id string) bool
	// Breakdown enables one extra traced run per engine cell to derive
	// the stall/check/recovery time fractions (default off: tracing
	// perturbs the timed runs' cache state and the extra run costs time).
	Breakdown bool
	// Log, when non-nil, receives one progress line per cell.
	Log io.Writer
}

func (o *Options) fill() {
	if o.N <= 0 {
		o.N = 5
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
}

// cellSpec is one runnable cell: prepare builds fresh state (untimed) and
// returns the closure the harness times. trace, when non-nil, performs a
// full traced run and returns the recorder plus the run's wall time — the
// breakdown source. resolve, when non-nil, is called once before the
// cell's first run and returns its Note; it exists so the expensive §4.4
// profiling pass runs only for cells that actually execute (enumeration
// and -list stay cheap).
type cellSpec struct {
	id, engine, workload string
	resolve              func() string
	prepare              func() func()
	traced               func() (*trace.Recorder, time.Duration)
	// cleanup, when non-nil, runs after the cell's last sample (scratch
	// state teardown, outside the timed region).
	cleanup func()
}

// Run executes the full cell grid and returns the summarized result.
func Run(opts Options) (*Result, error) {
	opts.fill()
	specs := cellSpecs(opts)
	if len(specs) == 0 {
		return nil, fmt.Errorf("bench: filter selected no cells")
	}
	res := &Result{
		Schema:    Schema,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		N:         opts.N,
		Warmup:    opts.Warmup,
		Workers:   opts.Workers,
		Scale:     opts.Scale,
		Env:       CaptureEnv("."),
	}
	for _, s := range specs {
		c := Cell{ID: s.id, Engine: s.engine, Workload: s.workload}
		if s.resolve != nil {
			c.Note = s.resolve()
		}
		for i := 0; i < opts.Warmup; i++ {
			s.prepare()()
		}
		allocs := make([]float64, 0, opts.N)
		for i := 0; i < opts.N; i++ {
			run := s.prepare()
			// MemStats reads bracket (never overlap) the timed region, so
			// the allocs column costs the samples nothing.
			var msBefore, msAfter runtime.MemStats
			runtime.ReadMemStats(&msBefore)
			start := time.Now()
			run()
			elapsed := time.Since(start)
			runtime.ReadMemStats(&msAfter)
			c.Samples = append(c.Samples, float64(elapsed.Nanoseconds()))
			allocs = append(allocs, float64(msAfter.Mallocs-msBefore.Mallocs))
		}
		c.summarize()
		c.AllocsPerOp = Median(allocs)
		if opts.Breakdown && s.traced != nil {
			rec, wall := s.traced()
			c.Breakdown = breakdown(rec, wall)
		}
		if s.cleanup != nil {
			s.cleanup()
		}
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "%-28s median %12.0fns  cov %5.1f%%\n", c.ID, c.Median, 100*c.CoV)
		}
		res.Cells = append(res.Cells, c)
	}
	return res, nil
}

// CellIDs returns the IDs of the cells opts would run, without running
// them (the -list mode). Cell existence is static — only the speculative
// cells' behavior depends on the (lazily run) profiling pass — so listing
// is cheap.
func CellIDs(opts Options) ([]string, error) {
	opts.fill()
	specs := cellSpecs(opts)
	if len(specs) == 0 {
		return nil, fmt.Errorf("bench: filter selected no cells")
	}
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.id
	}
	return ids, nil
}

// breakdown converts a traced run's span histograms into fractions of
// total lane time: TotalDuration(class) / (wall × lanes). The recorder
// must be quiescent (the traced run has returned) since Metrics walks the
// ring buffers.
func breakdown(rec *trace.Recorder, wall time.Duration) map[string]float64 {
	if rec == nil || wall <= 0 {
		return nil
	}
	sum := rec.Summary()
	if sum.Lanes == 0 {
		return nil
	}
	g := rec.Metrics()
	budget := float64(wall.Nanoseconds()) * float64(sum.Lanes)
	out := map[string]float64{}
	for _, class := range []string{"stall", "queue-full", "queue-empty", "barrier-wait", "range-stall", "recovery", "task", "iteration"} {
		if d := g.TotalDuration(class + ".ns"); d > 0 {
			out[class] = float64(d.Nanoseconds()) / budget
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// cellSpecs enumerates the grid: every applicable engine per registered
// workload (mirroring the equivalence harness's applicability gates), then
// the runtime-primitive microbenchmarks.
func cellSpecs(opts Options) []cellSpec {
	var specs []cellSpec
	add := func(s cellSpec) {
		if opts.Filter == nil || opts.Filter(s.id) {
			specs = append(specs, s)
		}
	}
	for _, e := range workloads.All() {
		for _, s := range entrySpecs(e, opts) {
			add(s)
		}
	}
	for _, s := range microSpecs(opts) {
		add(s)
	}
	for _, s := range ckptSpecs(opts) {
		add(s)
	}
	for _, s := range seedSpecs(opts) {
		add(s)
	}
	for _, s := range schedSpecs(opts) {
		add(s)
	}
	for _, s := range daemonSpecs(opts) {
		add(s)
	}
	for _, s := range traceSpecs(opts) {
		add(s)
	}
	for _, s := range compiledSpecs(opts) {
		add(s)
	}
	return specs
}

// profileEntry memoizes the §4.4 profiling pass per workload: it is
// deterministic and by far the most expensive part of cell setup.
var (
	profileMu    sync.Mutex
	profileCache = map[string]profileInfo{}
)

type profileInfo struct {
	dist int64
	ok   bool
}

func profiledDistance(e workloads.Entry, scale, workers int) (int64, bool) {
	key := fmt.Sprintf("%s/%d/%d", e.Name, scale, workers)
	profileMu.Lock()
	defer profileMu.Unlock()
	if pi, ok := profileCache[key]; ok {
		return pi.dist, pi.ok
	}
	kind := signature.Range
	if e.Exact {
		kind = signature.Exact
	}
	pr := speccross.Profile(e.Make(scale).(speccross.Workload), kind, 8)
	dist, ok := pr.Recommended(workers)
	profileCache[key] = profileInfo{dist, ok}
	return dist, ok
}

// entrySpecs builds the engine cells for one registry entry.
func entrySpecs(e workloads.Entry, opts Options) []cellSpec {
	var specs []cellSpec
	kind := signature.Range
	if e.Exact {
		kind = signature.Exact
	}

	if e.SpecOK {
		specs = append(specs, cellSpec{
			id: "barrier/" + e.Name, engine: "barrier", workload: e.Name,
			prepare: func() func() {
				sw := e.Make(opts.Scale).(speccross.Workload)
				return func() { speccross.RunBarriers(sw, opts.Workers) }
			},
			traced: func() (*trace.Recorder, time.Duration) {
				sw := e.Make(opts.Scale).(speccross.Workload)
				rec := trace.NewRecorder()
				start := time.Now()
				speccross.RunBarriersTraced(sw, opts.Workers, rec)
				return rec, time.Since(start)
			},
		})
	}
	if e.DomoreOK {
		specs = append(specs, cellSpec{
			id: "domore/" + e.Name, engine: "domore", workload: e.Name,
			prepare: func() func() {
				dw := e.Make(opts.Scale).(domore.Workload)
				return func() { domore.Run(dw, domore.Options{Workers: opts.Workers}) }
			},
			traced: func() (*trace.Recorder, time.Duration) {
				dw := e.Make(opts.Scale).(domore.Workload)
				rec := trace.NewRecorder()
				start := time.Now()
				domore.Run(dw, domore.Options{Workers: opts.Workers, Trace: rec})
				return rec, time.Since(start)
			},
		})
	}
	if e.SpecOK {
		s := cellSpec{id: "speccross/" + e.Name, engine: "speccross", workload: e.Name}
		s.resolve = func() string {
			if _, profitable := profiledDistance(e, opts.Scale, opts.Workers); !profitable {
				// The runtime's own policy: decline to speculate, run
				// barriers. Timing the fallback keeps the cell honest about
				// what the engine actually does on this workload.
				return "speculation unprofitable at this worker count; barrier fallback"
			}
			return ""
		}
		run := func(rec *trace.Recorder) func() {
			sw := e.Make(opts.Scale).(speccross.Workload)
			dist, profitable := profiledDistance(e, opts.Scale, opts.Workers)
			if !profitable {
				return func() { speccross.RunBarriers(sw, opts.Workers) }
			}
			cfg := speccross.Config{
				Workers: opts.Workers, CheckpointEvery: 200,
				SigKind: kind, SpecDistance: dist, Trace: rec,
			}
			return func() { speccross.Run(sw, cfg) }
		}
		s.prepare = func() func() { return run(nil) }
		s.traced = func() (*trace.Recorder, time.Duration) {
			rec := trace.NewRecorder()
			r := run(rec)
			start := time.Now()
			r()
			return rec, time.Since(start)
		}
		specs = append(specs, s)
	}
	if e.DomoreOK && e.SpecOK {
		if _, ok := e.Make(opts.Scale).(adaptive.Workload); ok {
			s := cellSpec{id: "adaptive/" + e.Name, engine: "adaptive", workload: e.Name}
			s.resolve = func() string {
				if _, profitable := profiledDistance(e, opts.Scale, opts.Workers); !profitable {
					return "speculation unprofitable; policy pinned to DOMORE"
				}
				return ""
			}
			run := func(rec *trace.Recorder) func() {
				aw := e.Make(opts.Scale).(adaptive.Workload)
				dist, profitable := profiledDistance(e, opts.Scale, opts.Workers)
				cfg := adaptive.Config{Workers: opts.Workers, Trace: rec}
				// The speculative windows must use the workload's signature
				// scheme: Range summaries on an Exact workload (scattered
				// access sets) conflict constantly, and every window would
				// misspeculate and re-execute.
				cfg.Spec.SigKind = kind
				if profitable {
					cfg.Spec.SpecDistance = dist
				} else {
					cfg.Policy = adaptive.Fixed(adaptive.EngineDomore)
				}
				return func() { adaptive.Run(aw, cfg) }
			}
			s.prepare = func() func() { return run(nil) }
			s.traced = func() (*trace.Recorder, time.Duration) {
				rec := trace.NewRecorder()
				r := run(rec)
				start := time.Now()
				r()
				return rec, time.Since(start)
			}
			specs = append(specs, s)
		}
	}
	return specs
}

// microSpecs benchmarks the runtime primitives the engines are built on —
// cross-thread SPSC forwarding, signature insert/compare for each scheme,
// and shadow-memory update/lookup — so a primitive-level regression is
// attributable even when engine cells move for workload reasons.
func microSpecs(opts Options) []cellSpec {
	const items = 1 << 16
	specs := []cellSpec{
		{
			id: "micro/queue.spsc", engine: "micro", workload: "queue.spsc",
			prepare: func() func() {
				q := queue.NewSPSC[int64](1024)
				return func() {
					done := make(chan struct{})
					go func() {
						for i := 0; i < items; i++ {
							q.Consume()
						}
						close(done)
					}()
					for i := 0; i < items; i++ {
						q.Produce(int64(i))
					}
					<-done
				}
			},
		},
		{
			id: "micro/shadow.dense", engine: "micro", workload: "shadow.dense",
			prepare: func() func() {
				st := shadow.NewDense(1 << 12)
				return func() { shadowLoop(st, items) }
			},
		},
		{
			id: "micro/shadow.sparse", engine: "micro", workload: "shadow.sparse",
			prepare: func() func() {
				st := shadow.NewSparse()
				return func() { shadowLoop(st, items) }
			},
		},
	}
	for _, kind := range []signature.Kind{signature.Range, signature.Bloom, signature.Exact} {
		kind := kind
		specs = append(specs, cellSpec{
			id:     "micro/signature." + kind.String(),
			engine: "micro", workload: "signature." + kind.String(),
			prepare: func() func() {
				return func() {
					a, b := signature.New(kind), signature.New(kind)
					for i := 0; i < items/16; i++ {
						a.Reset()
						b.Reset()
						for k := 0; k < 8; k++ {
							a.Write(uint64(i*64 + k*2))
							b.Read(uint64(i*64 + k*2 + 1))
						}
						a.Conflicts(b)
					}
				}
			},
		})
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].id < specs[j].id })
	return specs
}

// ckptWorkload isolates checkpoint cost: a large state (64k cells) with a
// tiny owner-partitioned write set per task, under a short checkpoint
// period. Full snapshots copy all cells at every segment boundary;
// incremental checkpoints refresh only the tracked writes, so the two
// cells' gap is the §4.2.2 checkpoint-substitution saving with everything
// else held equal. Tasks of one epoch own disjoint cells and cross-epoch
// writes stay within one owner (always the same worker row), so the run
// never misspeculates.
type ckptWorkload struct {
	epochs, tasks, writes int
	state                 []int64
}

func (w *ckptWorkload) Epochs() int                         { return w.epochs }
func (w *ckptWorkload) Tasks(int) int                       { return w.tasks }
func (w *ckptWorkload) Snapshot() any                       { return append([]int64(nil), w.state...) }
func (w *ckptWorkload) Restore(s any)                       { copy(w.state, s.([]int64)) }
func (w *ckptWorkload) StateLen() int                       { return len(w.state) }
func (w *ckptWorkload) ReadCell(c uint64) int64             { return w.state[c] }
func (w *ckptWorkload) WriteCell(c uint64, v int64)         { w.state[c] = v }
func (w *ckptWorkload) AddrCells(a uint64) (uint64, uint64) { return a, a + 1 }

func (w *ckptWorkload) Run(e, t, tid int, sig *signature.Signature) {
	slots := len(w.state) / w.tasks
	for j := 0; j < w.writes; j++ {
		c := t + ((e*3+j*7)%slots)*w.tasks
		if sig != nil {
			sig.Write(uint64(c))
		}
		w.state[c] = w.state[c]*3 + int64(e+j+1)
	}
}

// ckptSpecs builds the speccross/ckpt.{full,incremental} cells: the same
// workload under the two checkpoint substitutions, everything else equal.
func ckptSpecs(opts Options) []cellSpec {
	modes := []struct {
		name string
		mode speccross.CheckpointMode
	}{
		{"ckpt.full", speccross.CkptFull},
		{"ckpt.incremental", speccross.CkptIncremental},
	}
	var specs []cellSpec
	for _, m := range modes {
		m := m
		specs = append(specs, cellSpec{
			id: "speccross/" + m.name, engine: "speccross", workload: m.name,
			prepare: func() func() {
				w := &ckptWorkload{epochs: 64, tasks: 8, writes: 4, state: make([]int64, 1<<16)}
				cfg := speccross.Config{
					Workers: opts.Workers, SigKind: signature.Exact,
					CheckpointEvery: 4, Checkpoint: m.mode,
				}
				return func() { speccross.Run(w, cfg) }
			},
		})
	}
	return specs
}

func shadowLoop(st shadow.Store, items int) {
	for i := 0; i < items; i++ {
		a := uint64(i) & 0xfff
		st.Lookup(a)
		st.Update(a, int32(i&3), int64(i))
	}
}
