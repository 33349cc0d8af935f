package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"crossinv/internal/core"
	"crossinv/internal/daemon"
	"crossinv/internal/plancache"
	"crossinv/internal/runtime/trace"
)

// Frozen constants of the daemon workloads.
const (
	hotCorpusSize = 64
	zipfS         = 1.1
	// coldWarmShare is the share of cold-churn requests that carry a
	// program whose plan a previous server wrote to the cache directory.
	coldWarmShare = 0.10
	// coldPoolSize is the number of such plans written in set-up: at least
	// twice the warm requests a window serves (README.md, "frozen
	// constants"). Running out is a benchmark error, not a failed request.
	coldPoolSize = 1200
	// daemonRoundOps is one client's requests per round.
	daemonRoundOps = 50
)

// hotModes is the mode mix of daemon.hot-zipf, in cumulative shares.
var hotModes = []struct {
	mode string
	upTo float64
}{{"auto", 0.70}, {"domore", 0.80}, {"speccross", 0.90}, {"adaptive", 1.00}}

// request is one /run call a client is about to make.
type request struct {
	source string
	mode   string
	// want is the benchmark's own sequential checksum, or 0 with verify set
	// when the check is deferred until after the window.
	want   uint64
	verify func(got uint64)
	// kind names the request's supporting row.
	kind string
}

// daemonInstance is a crossinvd under load: one server behind a loopback
// listener and procs closed-loop clients, each with its own connection.
type daemonInstance struct {
	cfg *config
	// dir holds the workload's cache directory; close removes it.
	dir     string
	srv     *daemon.Server
	served  chan error
	url     string
	clientN []*http.Client
	// next builds operation seq of client c; calls for one client arrive in
	// seq order.
	next func(c, seq int) (request, error)
	// after runs in finish: deferred verification and workload-specific
	// layer numbers.
	after func(out *layerSet) (lateFailures int, err error)

	ops       atomic.Int64
	err       atomic.Value // first benchmark error (not a failed operation)
	baseline  map[string]int64
	mu        sync.Mutex
	cache     map[string]int
	status429 int
	status5xx int
	httpMs    []float64
	directMs  []float64
	selfMs    []float64
	execMs    []float64
	admitMs   map[string]float64 // by invocation id
	totals    *engineTotals
	log       *rowLog
}

// newServer opens a server over the cache directory under dir.
func newServer(cfg *config, dir string) (*daemon.Server, error) {
	return daemon.New(daemon.Config{CacheDir: filepath.Join(dir, "cache"), MaxInFlight: cfg.procs, DefaultWorkers: cfg.procs})
}

// startDaemon opens a server over dir and serves it on a loopback port. On
// an error dir is removed.
func startDaemon(cfg *config, dir string) (*daemonInstance, error) {
	srv, err := newServer(cfg, dir)
	var ln net.Listener
	if err == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemonInstance{
		cfg: cfg, dir: dir, srv: srv, served: make(chan error, 1), url: "http://" + ln.Addr().String(),
		cache: map[string]int{}, admitMs: map[string]float64{}, log: newRowLog(),
	}
	go func() { d.served <- srv.Serve(ln) }()
	for c := 0; c < cfg.procs; c++ {
		d.clientN = append(d.clientN, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	if cfg.traced() {
		d.totals = &engineTotals{}
	}
	return d, nil
}

func (d *daemonInstance) clients() int  { return d.cfg.procs }
func (d *daemonInstance) roundOps() int { return daemonRoundOps }

// close drains the server, waits for the listener goroutine, drops the
// clients' connections and removes the cache directory.
func (d *daemonInstance) close() {
	_ = d.srv.Shutdown() // only flushes a stats sidecar; nothing to report
	<-d.served
	for _, c := range d.clientN {
		c.CloseIdleConnections()
	}
	os.RemoveAll(d.dir)
}

func (d *daemonInstance) fail(err error) {
	d.err.CompareAndSwap(nil, err)
}

// post sends one request over the client's connection and reads the whole
// reply. The latency runs from send to last byte.
func (d *daemonInstance) post(c int, body []byte) (*daemon.RunResponse, int, time.Duration, error) {
	t0 := time.Now()
	resp, err := d.clientN[c].Post(d.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, time.Since(t0), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, resp.StatusCode, lat, err
	}
	var rr daemon.RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return nil, resp.StatusCode, lat, err
	}
	return &rr, resp.StatusCode, lat, nil
}

func (d *daemonInstance) do(c, seq int) (time.Duration, bool) {
	req, err := d.next(c, seq)
	if err != nil {
		d.fail(err)
		return 0, false
	}
	d.ops.Add(1)
	rr := &daemon.RunRequest{Source: req.source, Mode: req.mode}

	// On the traced pass every second request bypasses HTTP and admission
	// and goes through ExecuteTraced, which hands back the request's event
	// capture: its span tree gives the dispatch self time, its events the
	// engine counters. The other half still measures the loopback path.
	direct := d.cfg.traced() && seq%2 == 1
	var resp *daemon.RunResponse
	var status int
	var lat time.Duration
	if direct {
		op := d.cfg.tr.op()
		t0 := time.Now()
		var events []trace.Event
		resp, status, events = d.srv.ExecuteTraced(rr)
		lat = time.Since(t0)
		d.observeDirect(op, t0, lat, resp, events)
	} else {
		body, merr := json.Marshal(rr)
		if merr != nil {
			d.fail(merr)
			return 0, false
		}
		sp := d.cfg.tr.begin("http.run", d.cfg.tr.op(), 0)
		resp, status, lat, err = d.post(c, body)
		sp.end()
		if err != nil {
			return lat, false
		}
		if d.cfg.traced() {
			d.mu.Lock()
			d.httpMs = append(d.httpMs, ms(lat))
			d.mu.Unlock()
			if c == 0 && seq%daemonRoundOps == 0 {
				d.sampleAdmission()
			}
		}
	}
	d.log.add(req.kind, lat)
	d.mu.Lock()
	d.cache[resp.Cache]++
	if status == http.StatusTooManyRequests {
		d.status429++
	} else if status >= 500 {
		d.status5xx++
	}
	d.mu.Unlock()
	if status != http.StatusOK || !resp.OK {
		return lat, false
	}
	if req.verify != nil {
		req.verify(resp.Checksum)
		return lat, true
	}
	return lat, resp.Checksum == req.want
}

// observeDirect records one ExecuteTraced request: benchmark-side spans for
// the request and the execute stage the daemon reported inside it, and the
// engine counters recounted from the events.
func (d *daemonInstance) observeDirect(op int64, start time.Time, lat time.Duration, resp *daemon.RunResponse, events []trace.Event) {
	var total, exec time.Duration
	for _, s := range trace.SpansFromEvents(events) {
		if s.EndNs == 0 {
			continue
		}
		switch s.Kind {
		case trace.SpanInvocation.String():
			total = time.Duration(s.EndNs - s.StartNs)
		case trace.SpanExecute.String():
			exec = time.Duration(s.EndNs - s.StartNs)
		}
	}
	parent := d.cfg.tr.add("daemon.request", op, 0, start, lat)
	d.cfg.tr.add("daemon.execute", op, parent, start.Add(lat-exec), exec)
	d.totals.addEvents(resp.Engine, events, exec)
	d.mu.Lock()
	d.directMs = append(d.directMs, ms(lat))
	d.selfMs = append(d.selfMs, ms(total-exec))
	d.execMs = append(d.execMs, ms(exec))
	d.mu.Unlock()
}

// sampleAdmission reads the daemon's flight-recorder window over HTTP and
// keeps the admission span of every request it has not seen yet.
func (d *daemonInstance) sampleAdmission() {
	resp, err := d.clientN[0].Get(d.url + "/debug/flightrec")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var doc struct {
		Window []struct {
			ID    string           `json:"invocation"`
			Spans []trace.SpanInfo `json:"spans"`
		} `json:"window"`
	}
	if json.NewDecoder(resp.Body).Decode(&doc) != nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, inv := range doc.Window {
		for _, s := range inv.Spans {
			if s.Kind == trace.SpanAdmission.String() && s.EndNs > 0 {
				d.admitMs[inv.ID] = float64(s.EndNs-s.StartNs) / 1e6
			}
		}
	}
}

func (d *daemonInstance) finish(out *layerSet) (int, error) {
	if err, _ := d.err.Load().(error); err != nil {
		return 0, err
	}
	out.rows = d.log.results()
	late, err := d.after(out)
	if err != nil || !d.cfg.traced() {
		return late, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	labelled := float64(d.cache["hot"] + d.cache["warm"] + d.cache["cold"])
	out.set("daemon.hot_share", ratio(float64(d.cache["hot"]), labelled))
	out.set("daemon.warm_share", ratio(float64(d.cache["warm"]), labelled))
	out.set("daemon.cold_share", ratio(float64(d.cache["cold"]), labelled))
	var admit []float64
	for _, v := range d.admitMs {
		admit = append(admit, v)
	}
	out.set("daemon.admission_wait_ms", median(admit))
	out.set("daemon.dispatch_self_ms", median(d.selfMs))
	out.set("daemon.execute_ms", median(d.execMs))
	out.set("daemon.http_overhead_ms", median(d.httpMs)-median(d.directMs))
	out.set("daemon.rejected_429", float64(d.status429))
	out.set("daemon.status_5xx", float64(d.status5xx))
	d.totals.report(out)

	ops := float64(d.ops.Load())
	now := d.srv.Counters()
	out.set("plancache.hits_per_op", ratio(float64(now["plancache.hit"]-d.baseline["plancache.hit"]), ops))
	out.set("plancache.misses_per_op", ratio(float64(now["plancache.miss"]-d.baseline["plancache.miss"]), ops))
	out.set("plancache.puts_per_op", ratio(float64(now["plancache.put"]-d.baseline["plancache.put"]), ops))
	out.set("plancache.corrupt", float64(now["plancache.corrupt"]))
	return late, probePlancache(d.cfg, out)
}

// probePlancache times plancache.Put and Get from the benchmark's side, on
// a store of its own, with plans shaped like the daemon's.
func probePlancache(cfg *config, out *layerSet) error {
	dir, err := os.MkdirTemp(cfg.scratch, "plancache-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := plancache.Open(dir)
	if err != nil {
		return err
	}
	var putUs, getUs []float64
	for i := 0; i < 64; i++ {
		key := plancache.Key{
			SourceHash:  core.SourceHash(fmt.Sprintf("probe-%d", i)),
			Fingerprint: plancache.Fingerprint(core.PipelineVersion, 0, "range", "probe"),
		}
		plan := plancache.Plan{
			SeqChecksum: uint64(i), Regions: 1, LintClean: true, Engine: "speccross",
			Profile:  &plancache.Profile{Tasks: 1000, Epochs: 20, MinDistance: 50, PerLoop: map[string]int64{"i": 50}},
			Adaptive: &plancache.AdaptiveSeed{Start: "speccross", Window: 32},
			Facts:    []plancache.RegionFacts{{Var: "t", Pos: "5:3", AdvisorPlan: "DOALL", XDepClass: "cyclic"}},
		}
		sp := cfg.tr.begin("plancache.Put", cfg.tr.op(), 0)
		t0 := time.Now()
		err := store.Put(key, plan)
		putUs = append(putUs, float64(time.Since(t0))/1e3)
		sp.end()
		if err != nil {
			return err
		}
		sp = cfg.tr.begin("plancache.Get", cfg.tr.op(), 0)
		t0 = time.Now()
		_, ok := store.Get(key)
		getUs = append(getUs, float64(time.Since(t0))/1e3)
		sp.end()
		if !ok {
			return fmt.Errorf("plancache probe: entry %d not readable", i)
		}
	}
	out.set("plancache.put_us", median(putUs))
	out.set("plancache.get_us", median(getUs))
	return nil
}

// reference is the benchmark's own sequential result for src: compile and
// interpret, nothing of the parallel pipeline.
func reference(src string) (uint64, error) {
	c, err := core.Compile(src)
	if err != nil {
		return 0, err
	}
	return c.Oracle()
}

// stageSample runs the piecewise pipeline over programs after the window,
// for the frontend, analysis, transform and core groups.
func stageSample(cfg *config, programs []program, out *layerSet) error {
	st := newStageTimes()
	for _, p := range programs {
		if _, err := pipeline(p.source, st, cfg.tr, cfg.tr.op()); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	st.report(out)
	return nil
}

// --- daemon.hot-zipf ---

func setupHotZipf(cfg *config) (instance, error) {
	n := hotCorpusSize
	if cfg.smoke {
		n = 4
	}
	dir, err := os.MkdirTemp(cfg.scratch, "hot-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg, dir)
	if err != nil {
		return nil, err
	}
	progs := corpus(cfg.seed, 1, daemonShapes, n)
	want := make([]uint64, n)
	for i, p := range progs {
		if want[i], err = reference(p.source); err != nil {
			d.close()
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		// Warm every (program, mode) pair, so no timed request pays an
		// analysis stage: the DOMORE plan, for one, is built per mode.
		for _, m := range hotModes {
			resp, status := d.srv.Execute(&daemon.RunRequest{Source: p.source, Mode: m.mode})
			if status != http.StatusOK || resp.Checksum != want[i] {
				d.close()
				return nil, fmt.Errorf("%s: warming mode %s: status %d %s", p.name, m.mode, status, resp.Error)
			}
		}
	}
	d.baseline = d.srv.Counters()
	z := newZipf(n, zipfS)
	rngs := make([]*rng, cfg.procs)
	for c := range rngs {
		rngs[c] = newRng(cfg.seed ^ uint64(c+1)*0xa0761d6478bd642f)
	}
	d.next = func(c, _ int) (request, error) {
		i := z.rank(rngs[c].float())
		u := rngs[c].float()
		mode := hotModes[len(hotModes)-1].mode
		for _, m := range hotModes {
			if u < m.upTo {
				mode = m.mode
				break
			}
		}
		return request{source: progs[i].source, mode: mode, want: want[i], kind: "hot/" + mode}, nil
	}
	d.after = func(out *layerSet) (int, error) {
		if !cfg.traced() {
			return 0, nil
		}
		return 0, stageSample(cfg, progs, out)
	}
	return d, nil
}

// --- daemon.cold-churn ---

func setupColdChurn(cfg *config) (instance, error) {
	pool := coldPoolSize
	if cfg.smoke {
		pool = 40
	}
	dir, err := os.MkdirTemp(cfg.scratch, "cold-")
	if err != nil {
		return nil, err
	}
	// A first server runs every pool program cold, which writes its plan,
	// and is shut down: the plans are all the second server inherits.
	poolProgs := corpus(cfg.seed, 2, daemonShapes, pool)
	first, err := newServer(cfg, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for c := 0; c < cfg.procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < pool; i += cfg.procs {
				resp, status := first.Execute(&daemon.RunRequest{Source: poolProgs[i].source, Mode: "auto"})
				if status != http.StatusOK {
					firstErr.CompareAndSwap(nil, fmt.Errorf("%s: pre-writing plan: status %d %s", poolProgs[i].name, status, resp.Error))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	err = first.Shutdown()
	if ferr, _ := firstErr.Load().(error); ferr != nil {
		err = ferr
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d, err := startDaemon(cfg, dir)
	if err != nil {
		return nil, err
	}
	d.baseline = d.srv.Counters()

	// Per client: a draw sequence and an endless stream of new programs.
	// Warm requests take pool programs in one global order; each is used
	// once, so none ever turns hot.
	type served struct {
		index int // stream or pool index
		got   uint64
	}
	rngs := make([]*rng, cfg.procs)
	streams := make([]*stream, cfg.procs)
	coldServed := make([][]served, cfg.procs)
	for c := range rngs {
		rngs[c] = newRng(cfg.seed ^ uint64(c+1)*0xe7037ed1a0b428db)
		streams[c] = newStream(cfg.seed, uint64(c), daemonShapes)
	}
	var poolNext atomic.Int64
	var warmMu sync.Mutex
	var warmServed []served
	d.next = func(c, _ int) (request, error) {
		if rngs[c].float() < coldWarmShare {
			i := int(poolNext.Add(1)) - 1
			if i >= pool {
				return request{}, fmt.Errorf("warm pool of %d plans exhausted: raise coldPoolSize", pool)
			}
			return request{source: poolProgs[i].source, mode: "auto", kind: "churn/warm", verify: func(got uint64) {
				warmMu.Lock()
				warmServed = append(warmServed, served{i, got})
				warmMu.Unlock()
			}}, nil
		}
		i := int(streams[c].next)
		p := streams[c].program()
		return request{source: p.source, mode: "auto", kind: "churn/cold", verify: func(got uint64) {
			coldServed[c] = append(coldServed[c], served{i, got})
		}}, nil
	}
	// Checking a never-seen program needs its sequential result, which
	// costs as much CPU as the daemon's own oracle stage; doing it inside
	// the window would put the load generator in competition with the
	// server. Programs are regenerated from the seed and checked here.
	d.after = func(out *layerSet) (int, error) {
		failed := 0
		check := func(p program, got uint64) error {
			want, err := reference(p.source)
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			if got != want {
				failed++
			}
			return nil
		}
		for _, s := range warmServed {
			if err := check(poolProgs[s.index], s.got); err != nil {
				return 0, err
			}
		}
		var sample []program
		for c, list := range coldServed {
			replay := newStream(cfg.seed, uint64(c), daemonShapes)
			at := 0
			for _, s := range list {
				var p program
				for ; at <= s.index; at++ {
					p = replay.program()
				}
				if err := check(p, s.got); err != nil {
					return 0, err
				}
				if len(sample) < hotCorpusSize {
					sample = append(sample, p)
				}
			}
		}
		if !cfg.traced() {
			return failed, nil
		}
		if cfg.smoke && len(sample) > 8 {
			sample = sample[:8]
		}
		return failed, stageSample(cfg, sample, out)
	}
	return d, nil
}
