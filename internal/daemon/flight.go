package daemon

import (
	"container/list"
	"sync"
	"sync/atomic"

	"crossinv/internal/runtime/signature"
)

// lru is a capacity-bounded map with least-recently-used eviction. It does
// no locking of its own: the flight table and the program cache each guard
// theirs with the mutex they already hold.
type lru[K comparable, V any] struct {
	cap   int
	order *list.List // front = most recently used; values are *lruItem[K, V]
	items map[K]*list.Element
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](cap int) *lru[K, V] {
	return &lru[K, V]{cap: cap, order: list.New(), items: map[K]*list.Element{}}
}

func (c *lru[K, V]) len() int { return len(c.items) }

// get returns the value under k and marks it most recently used.
func (c *lru[K, V]) get(k K) (v V, ok bool) {
	el, ok := c.items[k]
	if !ok {
		return v, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// put stores v under k as the most recently used item and reports how many
// items (0 or 1) it evicted to stay within the capacity.
func (c *lru[K, V]) put(k K, v V) (evicted int) {
	if el, ok := c.items[k]; ok {
		el.Value.(*lruItem[K, V]).val = v
		c.order.MoveToFront(el)
		return 0
	}
	c.items[k] = c.order.PushFront(&lruItem[K, V]{key: k, val: v})
	if len(c.items) <= c.cap {
		return 0
	}
	last := c.order.Back()
	c.order.Remove(last)
	delete(c.items, last.Value.(*lruItem[K, V]).key)
	return 1
}

// each calls f on every item, most recently used first.
func (c *lru[K, V]) each(f func(K, V)) {
	for el := c.order.Front(); el != nil; el = el.Next() {
		it := el.Value.(*lruItem[K, V])
		f(it.key, it.val)
	}
}

// flightKey names one closed execution. LNL programs take no input beyond
// their source text, so the content hash plus every request field that
// reaches the engines determines the outcome; Misspec and Fresh are not in
// the key because requests carrying them never consult the table.
type flightKey struct {
	hash    string // core.SourceHash of the program text
	mode    string // as requested, "" resolved to "auto"
	kind    signature.Kind
	workers int // resolved against Config.DefaultWorkers
	region  int // as requested: the last-region default resolves per program
	window  int // as requested: 0 is adaptive.DefaultWindow
}

// result is what the table keeps of a verified execution: enough to answer
// the same request again, and nothing that pins the program in memory.
type result struct {
	leader   string // invocation that executed and verified
	engine   string
	checksum uint64 // equalled the sequential oracle in this server
	regions  int
}

// flight is one key's execution in progress. settle fills the outcome and
// then closes done; followers read it only after done. res.leader is always
// set; the rest of res only when status is 200.
type flight struct {
	done   chan struct{}
	res    result
	status int
	errmsg string
}

// flightTable is the result cache and the in-flight coalescer in one: a key
// is either settled (a verified result, LRU-bounded), in flight (a leader is
// executing it and identical requests wait on it), or absent. Entries are
// content-addressed and programs are closed, so a settled entry can never go
// stale; it leaves only by eviction.
type flightTable struct {
	mu       sync.Mutex
	settled  *lru[flightKey, result]
	inflight map[flightKey]*flight

	hits, misses, coalesced, evicted atomic.Int64
}

func newFlightTable(entries int) *flightTable {
	return &flightTable{settled: newLRU[flightKey, result](entries), inflight: map[flightKey]*flight{}}
}

// join looks key up on behalf of invocation id. Exactly one of three
// outcomes holds: a settled result (fl nil), an execution in progress to
// wait on (fl set, lead false), or a new flight that this invocation leads
// (fl set, lead true) and must finish with settle.
func (t *flightTable) join(key flightKey, id string) (res result, fl *flight, lead bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if res, ok := t.settled.get(key); ok {
		t.hits.Add(1)
		return res, nil, false
	}
	if fl = t.inflight[key]; fl != nil {
		t.coalesced.Add(1)
		return result{}, fl, false
	}
	t.misses.Add(1)
	fl = &flight{done: make(chan struct{}), res: result{leader: id}}
	t.inflight[key] = fl
	return result{}, fl, true
}

// settle publishes the leader's outcome to its followers and, when the
// execution was verified, retains it. Every other outcome — a 4xx, a 5xx, an
// admission rejection — is shared with this flight's followers and dropped.
func (t *flightTable) settle(key flightKey, fl *flight, resp *RunResponse, status int) {
	fl.status, fl.errmsg = status, resp.Error
	keep := verified(resp, status)
	if keep {
		fl.res = resultOf(resp)
	}
	t.mu.Lock()
	delete(t.inflight, key)
	if keep {
		t.retainLocked(key, fl.res)
	}
	t.mu.Unlock()
	close(fl.done)
}

// refresh records a verified execution that bypassed the table (a Fresh
// request): the newest proof replaces or re-creates the entry.
func (t *flightTable) refresh(key flightKey, resp *RunResponse) {
	t.mu.Lock()
	t.retainLocked(key, resultOf(resp))
	t.mu.Unlock()
}

func (t *flightTable) retainLocked(key flightKey, res result) {
	t.evicted.Add(int64(t.settled.put(key, res)))
}

func resultOf(resp *RunResponse) result {
	return result{leader: resp.Invocation, engine: resp.Engine, checksum: resp.Checksum, regions: resp.Regions}
}

func (t *flightTable) entries() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.settled.len()
}

// verified reports whether an outcome may be served again: execute answers
// 200/ok only after the engine's checksum equalled the sequential oracle.
func verified(resp *RunResponse, status int) bool {
	return status == 200 && resp.OK && resp.Checksum == resp.SeqChecksum
}
