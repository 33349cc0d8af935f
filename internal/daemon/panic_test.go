package daemon

import (
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crossinv/internal/runtime/engine"
	"crossinv/internal/runtime/trace"
)

// TestWorkerPanicIs500 makes a thread of each engine panic in the middle of
// a region — the fault is injected through the request recorder's hook, so
// it fires on the engine thread that emits the event: a worker, the DOMORE
// scheduler, a checker shard — and requires what ROADMAP item 5 asks of a worker
// panic: the request is answered 500 (the process survives), its execution
// slot is released, the runtime the thread died on is torn down rather than
// returned to the engine pool — the next request on the slot is built a new
// one and served correctly — and once the pool's idle runtimes are closed no
// engine goroutine is left behind.
// heavy is a region whose bodies cost many times their address
// computation, unlike cg.lnl's, which cost no more than theirs and which
// domore.Run's guard therefore keeps on the calling thread. heavy's goes
// parallel, and it runs for milliseconds (about 25 ms under DOMORE on two
// workers), so its workers start before the probe, which goes on until
// they do, has finished it, and a request for it holds its execution slot
// that long.
var heavy = "func heavy() {\n  var A[6500]\n  for t = 1 .. 400 {\n    parfor i = 0 .. 16 {\n      x = A[(t-1)*16 + i]\n" +
	strings.Repeat("      x = x * 7 + 3\n", 40) +
	"      A[t*16 + i] = x % 1000003\n    }\n  }\n}\n"

func TestWorkerPanicIs500(t *testing.T) {
	cg := corpus(t)["cg.lnl"]
	// Epoch t reads what epoch t-4 wrote: speculation overlaps epochs, so
	// the checker shards have signatures to screen.
	const pipe = `func pipe() {
  var A[600]
  for t = 4 .. 68 {
    parfor i = 0 .. 8 {
      A[t*8 + i] = A[(t-4)*8 + i] * 3 + 1
    }
  }
}
`
	// domore.Run's guard keeps cg.lnl's region on the calling thread;
	// heavy's goes parallel and has threads to kill.
	// adaptive.Run hands its first window to the seeded engine's own guard.
	// Every iteration here also reads the previous epoch's last cell, a
	// dependence at distance 1 that the profile finds too close to
	// speculate across, so the seed is DOMORE, whose guard sends these
	// costly bodies to the workers as it does heavy's.
	chain := strings.Replace(heavy, "x = A[(t-1)*16 + i]", "x = A[(t-1)*16 + 15] + A[(t-1)*16 + i]", 1)
	worker := func(l int32) bool { return l >= 0 }
	cases := []struct {
		mode, src string
		kind      trace.Kind
		lane      func(int32) bool
		misspec   int
	}{
		{"barrier", cg, trace.KindIterStart, worker, 0},
		{"domore", heavy, trace.KindIterStart, worker, 0},
		// The old name runs DOMORE; this case kills its scheduler.
		{"domore-sharded", heavy, trace.KindSchedule, func(l int32) bool { return l == trace.LaneScheduler }, 0},
		// speccross.Run's guard keeps pipe's tiny bodies on the calling
		// thread, where no checker runs. A run that asks for a
		// misspeculation is unguarded: this one speculates from its first
		// epoch, and the fault kills a checker shard before the forced
		// misspeculation at epoch 40.
		{"speccross", pipe, trace.KindSigPrefilter, func(l int32) bool { return l <= trace.LaneCheckerBase && l > trace.LaneRequest }, 40},
		{"adaptive", chain, trace.KindIterStart, worker, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.mode, func(t *testing.T) {
			src := tc.src
			s := newServer(t, Config{MaxInFlight: 1, QueueDepth: 1, QueueTimeout: 5 * time.Second})
			var armed atomic.Bool
			s.recPool.New = func() any {
				rec := trace.NewRecorderCap(s.cfg.TraceRingCap)
				rec.SetHook(func(lane int32, k trace.Kind, _, _, _ int64) {
					if k == tc.kind && tc.lane(lane) && armed.CompareAndSwap(true, false) {
						panic("injected engine-thread fault")
					}
				})
				return rec
			}
			want := mustSeq(t, s, src)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			req := &RunRequest{Source: src, Mode: tc.mode, Workers: 2, Fresh: true, Misspec: tc.misspec}

			// A clean run first, so the oracle and plans exist and the
			// goroutine baseline includes the HTTP server's own, but not the
			// runtime the run parked in the engine pool.
			if resp, status := postRun(t, ts.URL, req); status != 200 || resp.Checksum != want {
				t.Fatalf("clean run: %d %q checksum %x, want %x", status, resp.Error, resp.Checksum, want)
			}
			engine.CloseIdle()
			base := runtime.NumGoroutine()

			armed.Store(true)
			resp, status := postRun(t, ts.URL, req)
			for attempt := 1; armed.Load() && attempt < 5; attempt++ {
				// domore.Run's guard decides by measurement, and may keep a
				// run the machine disturbed on the calling thread, where no
				// engine thread emits: that run must succeed, and the next
				// one tries again.
				if status != 200 || resp.Checksum != want {
					t.Fatalf("a run the fault missed: %d %q checksum %x, want %x", status, resp.Error, resp.Checksum, want)
				}
				resp, status = postRun(t, ts.URL, req)
			}
			if armed.Load() {
				t.Fatalf("the fault never fired: no %v event on the targeted lanes", tc.kind)
			}
			if status != 500 || !strings.Contains(resp.Error, "injected engine-thread fault") {
				t.Fatalf("faulting run: %d %q, want a 500 naming the panic", status, resp.Error)
			}
			if n := len(s.inflight); n != 0 {
				t.Errorf("%d execution slots still held after the failed request", n)
			}
			if c := s.Counters(); c["daemon.failed"] != 1 {
				t.Errorf("daemon.failed = %d, want 1", c["daemon.failed"])
			}
			created, reused, idle := engine.Counters()
			if idle != 0 {
				t.Errorf("%d runtimes in the engine pool after the failed request, want the failed one dropped", idle)
			}

			if resp, status := postRun(t, ts.URL, req); status != 200 || !resp.OK || resp.Checksum != want {
				t.Fatalf("run after the fault: %d %q checksum %x, want %x", status, resp.Error, resp.Checksum, want)
			}
			if c, r, _ := engine.Counters(); c == created || r != reused {
				t.Errorf("run after the fault: %d runtimes built, %d reused; want a new one and none from the pool", c-created, r-reused)
			}
			engine.CloseIdle()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the faulting request, %d before it", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
