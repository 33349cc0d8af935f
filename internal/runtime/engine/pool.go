package engine

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// pool is the process-wide free list of released runtimes, most recently
// released last. It holds at most GOMAXPROCS of them — more could not run
// at once — whatever their worker counts.
var pool struct {
	mu   sync.Mutex
	idle []*Runtime
}

// What /metrics exports about runtimes (see Counters).
var runtimesCreated, runtimesReused, runtimesIdle atomic.Int64

// Counters reports how many runtimes New has built, how many Acquire calls
// were served from the pool instead, and how many runtimes sit idle in the
// pool now: "is this process paying thread start-up per call, and how many
// parked engine threads is it holding?".
func Counters() (created, reused, idle int64) {
	return runtimesCreated.Load(), runtimesReused.Load(), runtimesIdle.Load()
}

// Acquire returns a runtime for the given number of worker threads: the
// most recently released idle one with that worker count, else a new one.
// The caller is its control goroutine until it calls Release. What the
// runtime's previous owner ran on it is no concern of the new one: Release
// advanced StateVersion, and every engine resets the state it finds.
func Acquire(workers int) *Runtime {
	pool.mu.Lock()
	for i := len(pool.idle) - 1; i >= 0; i-- {
		rt := pool.idle[i]
		if rt.workers != workers {
			continue
		}
		pool.idle = slices.Delete(pool.idle, i, i+1)
		pool.mu.Unlock()
		rt.pooled.Store(false)
		runtimesIdle.Add(-1)
		runtimesReused.Add(1)
		rt.reused = true
		rt.idle.Store(false)
		return rt
	}
	pool.mu.Unlock()
	return New(workers)
}

// Reused reports whether the runtime's current owner got it from the pool
// rather than newly built.
func (rt *Runtime) Reused() bool { return rt.reused }

// forgetter is implemented by the engine states (see State) that hold
// references to what their last run was given — a workload, its options, a
// trace recorder. Forget drops them and keeps the buffers.
type forgetter interface{ Forget() }

// Release hands the runtime back to the pool; the caller must not use it
// afterwards. A runtime that cannot serve another owner — closed, torn down
// by a panic, or with a phase still outstanding — is closed and dropped
// instead, as is the least recently released one when the pool already
// holds GOMAXPROCS. Releasing a runtime that is already in the pool does
// nothing.
//
// What a pooled runtime promises: its threads are parked (they skip the
// idle spin), so it costs no CPU; it pins its buffers but nothing of its
// last owner's, because every state is told to Forget; and StateVersion has
// advanced, so no image of a workload's state cached on it is taken for
// current by the next owner, who may well run the same workload rewound.
func (rt *Runtime) Release() { rt.release(true) }

// ReleaseStale is Release without the invalidation: state version and
// references stay as the owner left them. It is the chaos harness's
// release-keeps-version mutation — the proof that the harness notices a
// pool that parks a runtime with its caller's checkpoint image still
// current — and has no other caller.
func (rt *Runtime) ReleaseStale() { rt.release(false) }

func (rt *Runtime) release(invalidate bool) {
	if rt.closed {
		return
	}
	for _, t := range rt.threads {
		if t != nil && t.busy {
			rt.Close()
			return
		}
	}
	if !rt.pooled.CompareAndSwap(false, true) {
		return
	}
	if invalidate {
		rt.version++
		for i := range rt.states {
			if f, ok := rt.states[i].val.(forgetter); ok {
				f.Forget()
			}
		}
	}
	rt.idle.Store(true)

	var evicted *Runtime
	pool.mu.Lock()
	pool.idle = append(pool.idle, rt)
	if len(pool.idle) > runtime.GOMAXPROCS(0) {
		evicted = pool.idle[0]
		pool.idle = slices.Delete(pool.idle, 0, 1)
	} else {
		runtimesIdle.Add(1)
	}
	pool.mu.Unlock()
	if evicted != nil {
		evicted.Close()
	}
}

// CloseIdle closes every runtime in the pool and returns once their threads
// have exited. Runtimes acquired and not yet released are unaffected.
func CloseIdle() {
	pool.mu.Lock()
	drop := pool.idle
	pool.idle = nil
	pool.mu.Unlock()
	runtimesIdle.Add(-int64(len(drop)))
	for _, rt := range drop {
		rt.Close()
	}
}
