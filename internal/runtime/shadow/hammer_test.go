package shadow

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"crossinv/internal/raceflag"
)

// The shadow store is single-writer by contract: the engine gives each
// scheduler a private instance or serializes access externally. The
// hammer reproduces the
// strongest concurrent shape that contract allows — many goroutines
// mutating one store under external synchronization, with per-address
// update order fixed by ownership — and asserts the result is exactly a
// sequential replay of the same update log: last writer wins, per
// address, no lost or phantom entries.

type update struct {
	addr uint64
	tid  int32
	iter int64
}

const hammerAddrSpace = 96

func hammerLog(n int) []update {
	rng := rand.New(rand.NewSource(7))
	log := make([]update, n)
	for i := range log {
		log[i] = update{
			addr: uint64(rng.Intn(hammerAddrSpace)),
			tid:  int32(rng.Intn(8)),
			iter: int64(i),
		}
	}
	return log
}

func hammer(t *testing.T) {
	const goroutines = 4
	n := 30000
	if raceflag.Enabled {
		n = 6000
	}
	log := hammerLog(n)

	// Every entry ever logged per address, for the reader invariant.
	written := make(map[uint64]map[Entry]bool)
	for _, u := range log {
		if written[u.addr] == nil {
			written[u.addr] = make(map[Entry]bool)
		}
		written[u.addr][Entry{Tid: u.tid, Iter: u.iter}] = true
	}

	st := NewSparse()
	var mu sync.Mutex
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers run concurrently with the writers and may observe any
	// intermediate state; every observed entry must be either untouched
	// or something some writer actually logged for that address.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				addr := uint64(rng.Intn(hammerAddrSpace))
				mu.Lock()
				e := st.Lookup(addr)
				mu.Unlock()
				if e.Iter != None && !written[addr][e] {
					t.Errorf("lookup(%d) returned %+v, which no writer ever recorded", addr, e)
					return
				}
				runtime.Gosched()
			}
		}(int64(100 + r))
	}

	// Writers partition the log by address ownership, so each address's
	// updates are applied in log order by exactly one goroutine while the
	// interleaving ACROSS addresses is scheduler-chosen. Gosched keeps the
	// schedule genuinely interleaved on single-CPU runners.
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i, u := range log {
				if int(u.addr)%goroutines != g {
					continue
				}
				mu.Lock()
				st.Update(u.addr, u.tid, u.iter)
				mu.Unlock()
				if i&63 == 0 {
					runtime.Gosched()
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	// Sequential replay of the identical log is the oracle.
	ref := NewSparse()
	for _, u := range log {
		ref.Update(u.addr, u.tid, u.iter)
	}
	for addr := uint64(0); addr < hammerAddrSpace; addr++ {
		if got, want := st.Lookup(addr), ref.Lookup(addr); got != want {
			t.Errorf("addr %d: concurrent store holds %+v, sequential replay holds %+v", addr, got, want)
		}
	}
	if st.Len() != ref.Len() {
		t.Errorf("concurrent store Len %d != sequential replay Len %d", st.Len(), ref.Len())
	}
}

func TestConcurrentHammerLastWriterWins(t *testing.T) {
	t.Run("sparse", hammer)
}

// FuzzStoreAgreement checks Sparse and a plain map model agree on any op
// log, whose 4-byte records are (op, addr, tid, iter).
func FuzzStoreAgreement(f *testing.F) {
	f.Add([]byte{0, 5, 1, 9, 1, 5, 0, 0})             // update then lookup
	f.Add([]byte{0, 200, 2, 3, 1, 200, 0, 0})         // a high address
	f.Add([]byte{0, 9, 1, 1, 0, 9, 2, 2, 1, 9, 0, 0}) // last writer wins
	f.Add([]byte{0, 4, 1, 1, 7, 0, 0, 0, 1, 4, 0, 0}) // reset clears
	f.Fuzz(func(t *testing.T, data []byte) {
		sparse := NewSparse()
		model := make(map[uint64]Entry)

		check := func(addr uint64) {
			want, ok := model[addr]
			if !ok {
				want = empty
			}
			if got := sparse.Lookup(addr); got != want {
				t.Fatalf("sparse.Lookup(%d) = %+v, model = %+v", addr, got, want)
			}
		}

		for i := 0; i+3 < len(data); i += 4 {
			op, addr := data[i], uint64(data[i+1])
			switch {
			case op%8 == 7:
				sparse.Reset()
				model = make(map[uint64]Entry)
			case op%2 == 0:
				tid, iter := int32(data[i+2]), int64(data[i+3])
				sparse.Update(addr, tid, iter)
				model[addr] = Entry{Tid: tid, Iter: iter}
			default:
				check(addr)
			}
		}

		for addr := uint64(0); addr < 256; addr++ {
			check(addr)
		}
		if sparse.Len() != len(model) {
			t.Fatalf("sparse.Len() = %d, model has %d addresses", sparse.Len(), len(model))
		}
	})
}
