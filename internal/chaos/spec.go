// Package chaos is the differential fuzzing and fault-injection harness
// for the four execution engines. It generates seeded random workloads
// with a known sequential ground truth, runs each one under barrier,
// DOMORE, SPECCROSS, and the adaptive hybrid — with and without trace
// recorders, and with injected faults that force the recovery paths
// (queue-full backoff, delayed lanes, signature-conflict misspeculation,
// speculative panics, timeouts, torn-state restores) — and diffs the
// final memory state plus engine Stats invariants against the sequential
// oracle. A failing case is shrunk to a minimal replayable Spec and
// written to testdata.
//
// The oracle is the one the paper's semantics demand: any dynamic
// schedule an engine produces — stalls forwarded over queues (§3.2.3),
// cross-epoch signature checks (§4.2.1), misspeculation recovery from
// checkpoints (§4.2.2) — must leave memory bit-identical to the
// sequential execution. Hand-written workloads exercise a sliver of that
// schedule space; this package samples it.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"

	"crossinv/internal/runtime/signature"
	"crossinv/internal/runtime/speccross"
	"crossinv/internal/workloads"
	"crossinv/internal/workloads/epochal"
)

// TaskSpec is one task's declared behaviour: the addresses it reads and
// writes (state indices), and an optional amount of spin work performed
// between reading and writing — the knob timing-sensitive cases use to
// make a dependence violation actually manifest.
type TaskSpec struct {
	Reads  []uint64 `json:"reads,omitempty"`
	Writes []uint64 `json:"writes,omitempty"`
	Work   int      `json:"work,omitempty"`
}

// EpochSpec is one invocation: a set of tasks that must be mutually
// independent (the DOALL inner-loop contract every engine assumes).
type EpochSpec struct {
	Tasks []TaskSpec `json:"tasks"`
}

// Spec is a fully explicit chaos case. Generated cases are derived from a
// seed; shrunk and replayed cases are loaded from JSON. A Spec is the
// canonical representation: the shrinker edits it structurally, and
// Kernel materializes it as an epochal.Kernel so it runs under every
// engine and plugs into the internal/workloads interfaces.
//
// Distance is the speculative distance the SPECCROSS arms run the case at
// (see Spec.SpecDistance): empty for none, "profiled" for the case's own
// §4.4 profile, "overstated" for a multiple of it.
type Spec struct {
	Name     string      `json:"name"`
	Seed     uint64      `json:"seed,omitempty"`
	StateLen int         `json:"state_len"`
	SigKind  string      `json:"sig_kind"`
	Distance string      `json:"distance,omitempty"`
	Epochs   []EpochSpec `json:"epochs"`
}

// Kind parses the spec's signature scheme (default Range).
func (s *Spec) Kind() signature.Kind {
	switch s.SigKind {
	case "bloom":
		return signature.Bloom
	case "exact":
		return signature.Exact
	default:
		return signature.Range
	}
}

// NumEpochs reports the invocation count.
func (s *Spec) NumEpochs() int { return len(s.Epochs) }

// TotalTasks reports the task count summed over epochs.
func (s *Spec) TotalTasks() int64 {
	var n int64
	for i := range s.Epochs {
		n += int64(len(s.Epochs[i].Tasks))
	}
	return n
}

// Validate checks the structural invariants every engine assumes:
// addresses in range, and within-epoch independence — no task may write
// an address another task of the same epoch reads or writes (the inner
// loops are independently parallelized; cross-epoch conflicts are the
// point of the exercise and are unrestricted).
func (s *Spec) Validate() error {
	if s.StateLen <= 0 {
		return fmt.Errorf("chaos: state_len %d", s.StateLen)
	}
	if len(s.Epochs) == 0 {
		return fmt.Errorf("chaos: no epochs")
	}
	switch s.SigKind {
	case "", "range", "bloom", "exact":
	default:
		return fmt.Errorf("chaos: unknown sig_kind %q", s.SigKind)
	}
	switch s.Distance {
	case "", distProfiled, distOverstated:
	default:
		return fmt.Errorf("chaos: unknown distance %q", s.Distance)
	}
	for e := range s.Epochs {
		writers := map[uint64]int{}
		for t := range s.Epochs[e].Tasks {
			for _, w := range s.Epochs[e].Tasks[t].Writes {
				if w >= uint64(s.StateLen) {
					return fmt.Errorf("chaos: epoch %d task %d writes %d out of range %d", e, t, w, s.StateLen)
				}
				if prev, dup := writers[w]; dup && prev != t {
					return fmt.Errorf("chaos: epoch %d tasks %d and %d both write %d", e, prev, t, w)
				}
				writers[w] = t
			}
		}
		for t := range s.Epochs[e].Tasks {
			for _, r := range s.Epochs[e].Tasks[t].Reads {
				if r >= uint64(s.StateLen) {
					return fmt.Errorf("chaos: epoch %d task %d reads %d out of range %d", e, t, r, s.StateLen)
				}
				if wt, hit := writers[r]; hit && wt != t {
					return fmt.Errorf("chaos: epoch %d task %d reads %d written by same-epoch task %d", e, t, r, wt)
				}
			}
		}
	}
	return nil
}

// Kernel materializes the spec as a fresh epochal.Kernel with its own
// zeroed state. All state accesses go through atomics: under SPECCROSS,
// cross-epoch dependent accesses legitimately run concurrently inside a
// speculative segment (the checker aborts the segment afterwards), so
// plain accesses would be reported by the race detector even though the
// rollback discards their results. Atomics keep the harness -race-clean
// while ordering violations remain fully visible as value divergence,
// which is exactly what the differential oracle checks.
func (s *Spec) Kernel() *epochal.Kernel {
	k := &epochal.Kernel{
		BenchName: s.Name,
		State:     make([]int64, s.StateLen),
		NumEpochs: len(s.Epochs),
	}
	// Declared access addresses are state-cell indices, so the cell map
	// is the identity: checkpoints in chaos sweeps copy exactly the cells
	// the tasks really touch.
	k.AddrSpan = speccross.IdentityCells
	k.TasksOf = func(e int) int { return len(s.Epochs[e].Tasks) }
	k.Access = func(e, t int, reads, writes []uint64) ([]uint64, []uint64) {
		ts := &s.Epochs[e].Tasks[t]
		return append(reads, ts.Reads...), append(writes, ts.Writes...)
	}
	k.Update = func(e, t int) {
		ts := &s.Epochs[e].Tasks[t]
		acc := workloads.Mix64(uint64(e)<<32 ^ uint64(t) ^ s.Seed)
		for _, r := range ts.Reads {
			acc = workloads.Mix64(acc ^ uint64(atomic.LoadInt64(&k.State[r])))
		}
		// Yield periodically inside the spin: on few-core machines (CI
		// runners are often single-CPU) a tight loop shorter than the
		// preemption quantum would serialize the workers and no racy
		// interleaving could ever manifest; the yields let other lanes
		// run mid-task, which is the schedule space this harness exists
		// to sample. Values are unaffected.
		for i := 0; i < ts.Work; i++ {
			acc = workloads.Mix64(acc)
			if i&255 == 255 {
				runtime.Gosched()
			}
		}
		for _, w := range ts.Writes {
			old := uint64(atomic.LoadInt64(&k.State[w]))
			atomic.StoreInt64(&k.State[w], int64(workloads.Mix64(old*3+acc+w)))
		}
	}
	return k
}

// The Spec.Distance draws besides none.
const (
	distProfiled   = "profiled"
	distOverstated = "overstated"
)

// SpecDistance is the speculative distance (speccross.Config.SpecDistance)
// the SPECCROSS arms of a run at the given worker count use. A profiled
// case runs at the minimum distance the §4.4 profile of its own kernel,
// with its own signature kind, finds: NoConflict when there is none, which
// the range gate never stops at but which cuts every epoch into one chunk
// per worker. An overstated case runs at 4·workers times that distance,
// which makes chunks of twice the profiled distance and lets tasks that
// really conflict overlap, so only the checker stands between the gate and
// a wrong result.
func (s *Spec) SpecDistance(workers int) int64 {
	if s.Distance == "" {
		return 0
	}
	d := speccross.Profile(s.Kernel(), s.Kind(), speccross.DefaultProfileWindow).MinDistance
	if s.Distance == distOverstated && d != speccross.NoConflict {
		d *= 4 * int64(workers)
	}
	return d
}

// SequentialState runs the case sequentially on fresh state and returns
// the final memory image — the differential oracle.
func (s *Spec) SequentialState() []int64 {
	k := s.Kernel()
	k.RunSequential()
	return k.State
}

// MarshalIndent renders the spec as replayable JSON.
func (s *Spec) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// LoadSpec reads a Spec (or an Artifact wrapping one) from a JSON file
// and validates it.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// Accept both a bare Spec and a shrink Artifact.
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("chaos: %s: %v", path, err)
	}
	spec := art.Spec
	if spec == nil {
		spec = &Spec{}
		if err := json.Unmarshal(data, spec); err != nil {
			return nil, fmt.Errorf("chaos: %s: %v", path, err)
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: %s: %v", path, err)
	}
	return spec, nil
}
