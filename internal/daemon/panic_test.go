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
// it fires on the engine thread that emits the event: a worker, a scheduler
// lane, a checker shard — and requires what ROADMAP item 5 asks of a worker
// panic: the request is answered 500 (the process survives), its execution
// slot is released, the runtime the thread died on is torn down rather than
// returned to the engine pool — the next request on the slot is built a new
// one and served correctly — and once the pool's idle runtimes are closed no
// engine goroutine is left behind.
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
	// Two full chunks an invocation at the sharded scheduler's default chunk
	// size of 256: only a full chunk is handed to a scheduler-lane thread
	// (cg.lnl's inner loops are shorter, so its chunks never leave the
	// driver).
	const wide = `func wide() {
  var A[3000]
  for t = 1 .. 5 {
    parfor i = 0 .. 512 {
      A[t*512 + i] = A[(t-1)*512 + i] * 3 + 1
    }
  }
}
`
	worker := func(l int32) bool { return l >= 0 }
	cases := []struct {
		mode, src string
		kind      trace.Kind
		lane      func(int32) bool
	}{
		{"barrier", cg, trace.KindIterStart, worker},
		{"domore", cg, trace.KindIterStart, worker},
		{"domore-sharded", wide, trace.KindShardChunk, func(l int32) bool { return l <= trace.LaneShardBase }},
		{"speccross", pipe, trace.KindSigPrefilter, func(l int32) bool { return l <= trace.LaneCheckerBase && l > trace.LaneShardBase }},
		{"adaptive", cg, trace.KindIterStart, worker},
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
			req := &RunRequest{Source: src, Mode: tc.mode, Workers: 2, Fresh: true}

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
