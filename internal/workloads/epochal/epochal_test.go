package epochal

import (
	"testing"

	"crossinv/internal/runtime/domore"
	"crossinv/internal/runtime/speccross"
)

// counterKernel: epoch e task t multiplies-and-adds into cell t of a
// rotating pair of buffers, giving cross-epoch dependences of one epoch.
func counterKernel(epochs, tasks int) *Kernel {
	k := &Kernel{
		BenchName: "counter",
		State:     make([]int64, 2*tasks),
		NumEpochs: epochs,
	}
	k.TasksOf = func(epoch int) int { return tasks }
	k.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		dst := (epoch % 2) * tasks
		src := ((epoch + 1) % 2) * tasks
		writes = append(writes, uint64(dst+task))
		reads = append(reads, uint64(src+task))
		return reads, writes
	}
	k.Update = func(epoch, task int) {
		dst := (epoch%2)*tasks + task
		src := ((epoch+1)%2)*tasks + task
		k.State[dst] = k.State[dst]*3 + k.State[src] + int64(epoch+task)
	}
	return k
}

func TestSequentialAndChecksum(t *testing.T) {
	a := counterKernel(10, 8)
	b := counterKernel(10, 8)
	a.RunSequential()
	b.RunSequential()
	if a.Checksum() != b.Checksum() {
		t.Fatal("determinism violated")
	}
	if a.Name() != "counter" {
		t.Fatalf("Name = %q", a.Name())
	}
}

func TestSpeccrossAdapter(t *testing.T) {
	golden := counterKernel(12, 6)
	golden.RunSequential()
	want := golden.Checksum()

	k := counterKernel(12, 6)
	speccross.RunParallel(k, speccross.Config{Workers: 3, CheckpointEvery: 4, SpecDistance: 6})
	if k.Checksum() != want {
		t.Fatal("speccross adapter diverged")
	}
}

func TestDomoreAdapter(t *testing.T) {
	golden := counterKernel(12, 6)
	golden.RunSequential()
	want := golden.Checksum()

	// The parallel execution: domore.Run's guard could keep a region this
	// small on the calling thread.
	k := counterKernel(12, 6)
	stats := domore.RunParallel(k, domore.Options{Workers: 3})
	if k.Checksum() != want {
		t.Fatal("domore adapter diverged")
	}
	if stats.Iterations != 72 {
		t.Fatalf("iterations = %d", stats.Iterations)
	}
	// Same-index conflicts land on the same worker every other epoch under
	// round-robin with 3 workers and 6 tasks, so cross-thread conditions
	// are absent; the shadow memory still tracked every access.
	if stats.AddrChecks == 0 {
		t.Fatal("no address checks recorded")
	}
}

func TestComputeAddrMergesReadWriteSets(t *testing.T) {
	k := counterKernel(4, 4)
	addrs := k.ComputeAddr(1, 2, nil)
	if len(addrs) != 2 {
		t.Fatalf("ComputeAddr = %v, want read+write", addrs)
	}
	// Duplicate addresses must not repeat.
	k2 := counterKernel(4, 4)
	k2.Access = func(epoch, task int, reads, writes []uint64) ([]uint64, []uint64) {
		reads = append(reads, 7)
		writes = append(writes, 7)
		return reads, writes
	}
	if got := k2.ComputeAddr(0, 0, nil); len(got) != 1 {
		t.Fatalf("ComputeAddr with aliasing sets = %v, want deduplicated", got)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	k := counterKernel(4, 4)
	k.RunSequential()
	snap := k.Snapshot()
	before := k.Checksum()
	k.State[0] = -999
	k.Restore(snap)
	if k.Checksum() != before {
		t.Fatal("restore did not round-trip")
	}
}
