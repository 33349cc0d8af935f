package speccross

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"crossinv/internal/raceflag"
	"crossinv/internal/runtime/signature"
)

// gridWorkload is a synthetic program shaped like the paper's Fig 4.2:
// each epoch is a DOALL loop whose tasks touch disjoint address blocks
// (intra-epoch independence), while blocks are revisited across epochs with
// a configurable shift, creating cross-epoch dependences of a known
// distance. Updates are order-sensitive so any epoch-order violation that
// escaped detection would corrupt the checksum.
type gridWorkload struct {
	epochs    int
	tasks     int
	blockSize int
	shift     int // address shift per epoch; 0 = always conflict with the same block
	data      []int64
	slowTask  int           // tid-0 task to slow down (forces thread skew); -1 off
	slowDur   time.Duration // busy-wait duration for the slow task
	mu        sync.Mutex    // protects log
	log       []int         // irreversible-epoch journal
	irrEpochs map[int]bool
}

func newGrid(epochs, tasks, blockSize, shift int) *gridWorkload {
	return &gridWorkload{
		epochs: epochs, tasks: tasks, blockSize: blockSize, shift: shift,
		data:     make([]int64, tasks*blockSize+epochs*shift+blockSize),
		slowTask: -1, irrEpochs: map[int]bool{},
	}
}

func (g *gridWorkload) Epochs() int         { return g.epochs }
func (g *gridWorkload) Tasks(epoch int) int { return g.tasks }

func (g *gridWorkload) base(epoch, task int) int {
	return task*g.blockSize + epoch*g.shift
}

func (g *gridWorkload) Run(epoch, task, tid int, sig *signature.Signature) {
	if g.slowTask >= 0 && epoch == 0 && task == g.slowTask {
		deadline := time.Now().Add(g.slowDur)
		for time.Now().Before(deadline) {
		}
	}
	tag := int64(epoch*g.tasks + task + 1)
	b := g.base(epoch, task)
	for i := 0; i < g.blockSize; i++ {
		a := b + i
		if sig != nil {
			sig.Read(uint64(a))
			sig.Write(uint64(a))
		}
		g.data[a] = g.data[a]*3 + tag
	}
	if g.irrEpochs[epoch] {
		g.mu.Lock()
		g.log = append(g.log, epoch*g.tasks+task)
		g.mu.Unlock()
	}
}

// The grid has no cell map: its checkpoints take the whole image.
func (g *gridWorkload) StateLen() int                              { return len(g.data) }
func (g *gridWorkload) LoadCells(lo uint64, dst []int64)           { copy(dst, g.data[lo:]) }
func (g *gridWorkload) StoreCells(lo uint64, src []int64)          { copy(g.data[lo:], src) }
func (g *gridWorkload) CellMap() func(addr uint64) (lo, hi uint64) { return nil }

func (g *gridWorkload) Irreversible(epoch int) bool { return g.irrEpochs[epoch] }

func (g *gridWorkload) EpochLabel(epoch int) string {
	if epoch%2 == 0 {
		return "L1"
	}
	return "L2"
}

// sequential computes the golden result on a fresh copy.
func (g *gridWorkload) sequential() []int64 {
	data := make([]int64, len(g.data))
	for e := 0; e < g.epochs; e++ {
		for t := 0; t < g.tasks; t++ {
			tag := int64(e*g.tasks + t + 1)
			b := g.base(e, t)
			for i := 0; i < g.blockSize; i++ {
				data[b+i] = data[b+i]*3 + tag
			}
		}
	}
	return data
}

func checkResult(t *testing.T, g *gridWorkload, want []int64) {
	t.Helper()
	for a := range want {
		if g.data[a] != want[a] {
			t.Fatalf("data[%d] = %d, want %d", a, g.data[a], want[a])
		}
	}
}

func TestRunBarriersMatchesSequential(t *testing.T) {
	g := newGrid(10, 12, 4, 2)
	want := g.sequential()
	bar := RunBarriers(g, 4)
	checkResult(t, g, want)
	if _, waits := bar.Stats(); waits == 0 {
		t.Fatal("expected barrier waits")
	}
}

func TestSpeculativeNoConflicts(t *testing.T) {
	// shift ≥ tasks*blockSize would be fully disjoint per epoch; instead use
	// conflicting layout but verify correctness either way. Here: disjoint.
	g := newGrid(8, 6, 3, 6*3)
	want := g.sequential()
	stats := RunParallel(g, Config{Workers: 3, CheckpointEvery: 4})
	checkResult(t, g, want)
	if stats.Misspeculations != 0 {
		t.Fatalf("Misspeculations = %d, want 0 for disjoint epochs", stats.Misspeculations)
	}
	if stats.Tasks != 8*6 {
		t.Fatalf("Tasks = %d, want %d", stats.Tasks, 8*6)
	}
	if stats.Checkpoints == 0 {
		t.Fatal("expected checkpoints")
	}
}

func TestSpeculativeConflictingAlwaysCorrect(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("unbounded speculation over conflicting epochs races by design (§4.2.1); detection+rollback validated without -race")
	}
	// shift 1 < blockSize: task t of epoch e+1 overlaps task t−1 of epoch e,
	// which round-robin places on a *different* thread — genuine cross-thread
	// cross-epoch dependences. Whether or not an overlap manifests in time on
	// this host, the final state must be the sequential one.
	g := newGrid(12, 8, 4, 1)
	want := g.sequential()
	stats := RunParallel(g, Config{Workers: 4, CheckpointEvery: 3})
	checkResult(t, g, want)
	t.Logf("misspeculations=%d reexecuted=%d comparisons=%d",
		stats.Misspeculations, stats.ReexecutedEpochs, stats.Comparisons)
}

func TestForcedMisspeculationRecovers(t *testing.T) {
	// Fully disjoint epochs (shift = tasks*blockSize): no genuine conflict
	// can fire, so the injected fault is the only misspeculation.
	g := newGrid(10, 6, 3, 18)
	want := g.sequential()
	stats := Run(g, Config{Workers: 3, CheckpointEvery: 5, ForceMisspecEpoch: 6})
	checkResult(t, g, want)
	if stats.Misspeculations != 1 {
		t.Fatalf("Misspeculations = %d, want exactly 1 injected", stats.Misspeculations)
	}
	if stats.ReexecutedEpochs != 5 {
		t.Fatalf("ReexecutedEpochs = %d, want 5 (the misspeculated segment)", stats.ReexecutedEpochs)
	}
}

func TestWorkerPanicTriggersRecovery(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("conflicting unbounded speculation, racy by design")
	}
	g := newGrid(6, 4, 2, 1)
	want := g.sequential()
	var fired bool
	w := &panicOnce{gridWorkload: g, fireEpoch: 2, fireTask: 1, fired: &fired}
	stats := RunParallel(w, Config{Workers: 2, CheckpointEvery: 10})
	checkResult(t, g, want)
	if stats.Misspeculations != 1 {
		t.Fatalf("Misspeculations = %d, want 1 from the panic", stats.Misspeculations)
	}
}

// panicOnce panics the first time a given task runs speculatively,
// simulating the segmentation-fault misspeculation trigger of §4.2.2.
type panicOnce struct {
	*gridWorkload
	fireEpoch, fireTask int
	fired               *bool
}

func (p *panicOnce) Run(epoch, task, tid int, sig *signature.Signature) {
	if sig != nil && !*p.fired && epoch == p.fireEpoch && task == p.fireTask {
		*p.fired = true
		panic("injected speculative fault")
	}
	p.gridWorkload.Run(epoch, task, tid, sig)
}

func TestTimeoutTriggersMisspeculation(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("conflicting unbounded speculation, racy by design")
	}
	g := newGrid(4, 4, 2, 2)
	g.slowTask = 0
	g.slowDur = 60 * time.Millisecond
	want := g.sequential()
	stats := RunParallel(g, Config{Workers: 2, CheckpointEvery: 100, SpecTimeout: 10 * time.Millisecond})
	checkResult(t, g, want)
	if stats.Misspeculations == 0 {
		t.Fatal("expected a timeout-triggered misspeculation")
	}
}

func TestIrreversibleEpochRunsExactlyOnce(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("conflicting unbounded speculation, racy by design")
	}
	g := newGrid(9, 5, 2, 1)
	g.irrEpochs[4] = true
	want := g.sequential()
	Run(g, Config{Workers: 3, CheckpointEvery: 100, ForceMisspecEpoch: 7})
	checkResult(t, g, want)
	// Epoch 4 journals once per task, exactly once despite the later
	// misspeculation (it sits in its own non-speculative segment with a
	// checkpoint after it, §4.2.2).
	if len(g.log) != 5 {
		t.Fatalf("irreversible epoch journaled %d entries, want 5", len(g.log))
	}
}

func TestSpecDistanceGating(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("gating below the conflict distance races by design; see §4.2.1")
	}
	g := newGrid(20, 4, 2, 2)
	g.slowTask = 1
	g.slowDur = 5 * time.Millisecond
	want := g.sequential()
	stats := RunParallel(g, Config{Workers: 2, CheckpointEvery: 100, SpecDistance: 4})
	checkResult(t, g, want)
	if stats.RangeStalls == 0 {
		t.Log("no range stalls observed (host scheduling dependent); gating path untested this run")
	}
}

func TestSingleWorker(t *testing.T) {
	g := newGrid(6, 3, 2, 1)
	want := g.sequential()
	stats := RunParallel(g, Config{Workers: 1})
	checkResult(t, g, want)
	if stats.Misspeculations != 0 {
		t.Fatalf("single worker cannot misspeculate, got %d", stats.Misspeculations)
	}
}

func TestInvalidWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run with 0 workers did not panic")
		}
	}()
	Run(newGrid(1, 1, 1, 0), Config{Workers: 0})
}

func TestPackUnpackET(t *testing.T) {
	cases := []struct{ e, task int32 }{{0, 0}, {1, 2}, {1000, 65535}, {1 << 20, 1 << 20}}
	for _, c := range cases {
		e, task := unpackET(packET(c.e, c.task))
		if e != c.e || task != c.task {
			t.Fatalf("roundtrip (%d,%d) → (%d,%d)", c.e, c.task, e, task)
		}
	}
	if packET(2, 0) <= packET(1, 1<<30) {
		t.Fatal("epoch must dominate task in packed comparison")
	}
}

func TestProfileFindsMinDistance(t *testing.T) {
	// shift 0: task t of epoch e conflicts with task t of epoch e-1.
	// Global numbering: distance = tasks per epoch, exactly.
	g := newGrid(6, 7, 3, 0)
	res := Profile(g, signature.Range, 0)
	if res.MinDistance != 7 {
		t.Fatalf("MinDistance = %d, want 7", res.MinDistance)
	}
	if res.Conflicts == 0 {
		t.Fatal("expected conflicts")
	}
	if res.Tasks != 6*7 {
		t.Fatalf("Tasks = %d, want 42", res.Tasks)
	}
	spec, profitable := res.Recommended(4)
	if spec != 7 || !profitable {
		t.Fatalf("Recommended = (%d,%v), want (7,true)", spec, profitable)
	}
	if _, profitable := res.Recommended(16); profitable {
		t.Fatal("distance 7 must be unprofitable for 16 workers")
	}
}

func TestProfileNoConflict(t *testing.T) {
	g := newGrid(5, 4, 2, 4*2)
	res := Profile(g, signature.Range, 0)
	if res.MinDistance != NoConflict {
		t.Fatalf("MinDistance = %d, want NoConflict", res.MinDistance)
	}
	spec, profitable := res.Recommended(8)
	if spec != 0 || !profitable {
		t.Fatalf("Recommended = (%d,%v), want unbounded+profitable", spec, profitable)
	}
}

func TestProfilePerLoopLabels(t *testing.T) {
	g := newGrid(6, 5, 2, 0)
	res := Profile(g, signature.Range, 0)
	if len(res.PerLoop) == 0 {
		t.Fatal("expected per-loop distances with a Labeler workload")
	}
	for label, d := range res.PerLoop {
		if label != "L1" && label != "L2" {
			t.Fatalf("unexpected label %q", label)
		}
		if d < 5 {
			t.Fatalf("loop %s distance %d below epoch size", label, d)
		}
	}
}

// Property: for random shapes, worker counts, and checkpoint periods —
// with and without injected misspeculation — SPECCROSS always produces the
// sequential result.
func TestQuickAlwaysSequentialResult(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("random shifts include conflicting unbounded speculation, racy by design")
	}
	prop := func(seed int64, workers, ckpt uint8, inject bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := newGrid(4+rng.Intn(8), 2+rng.Intn(6), 1+rng.Intn(3), rng.Intn(4))
		want := g.sequential()
		cfg := Config{
			Workers:         int(workers%4) + 1,
			CheckpointEvery: int(ckpt%6) + 1,
		}
		if inject && g.epochs > 1 {
			cfg.ForceMisspecEpoch = 1 + rng.Intn(g.epochs-1)
		}
		RunParallel(g, cfg)
		for a := range want {
			if g.data[a] != want[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpecCrossGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := newGrid(50, 32, 4, 4)
		b.StartTimer()
		RunParallel(g, Config{Workers: 4, CheckpointEvery: 25})
	}
}
