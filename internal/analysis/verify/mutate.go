package verify

import (
	"sort"

	"crossinv/internal/ir"
	"crossinv/internal/lang/token"
	"crossinv/internal/transform/advisor"
	"crossinv/internal/transform/mtcg"
	"crossinv/internal/transform/partition"
	"crossinv/internal/transform/slice"
)

// Corruption describes a deliberate plan corruption seeded by one of the
// Corrupt* helpers, so mutation tests can assert the verifier flags the
// right check at the right source position. The helpers mutate the plan in
// place and pick their target deterministically (lowest instruction ID /
// first edge), so a failing test reproduces.
type Corruption struct {
	// Name identifies the mutation class.
	Name string
	// Check is the verifier check expected to flag it.
	Check string
	// Pos is the source position the diagnostic must carry.
	Pos token.Pos
}

// CorruptWidenScheduler moves the destination of a worker→worker hard
// dependence into the scheduler partition — the "widened scheduler" bug
// class, which breaks the pipeline invariant because its source now feeds
// the scheduler from the worker side. Returns false when the partition has
// no such edge to corrupt.
func CorruptWidenScheduler(part *partition.Result) (Corruption, bool) {
	for _, e := range part.Graph.Edges {
		if !hardEdge(e) || e.Src == e.Dst {
			continue
		}
		if part.Side[e.Src] == partition.Worker && part.Side[e.Dst] == partition.Worker {
			part.Side[e.Dst] = partition.Scheduler
			return Corruption{
				Name:  "widen-scheduler",
				Check: CheckPartition,
				Pos:   part.Graph.Prog.Instrs[e.Dst].Pos,
			}, true
		}
	}
	return Corruption{}, false
}

// CorruptStoreIntoSlice appends a store from the inner loop's body to the
// computeAddr slice — the §3.3.4 violation slice.Generate exists to prevent
// (a side-effecting slice would make the scheduler's redundant re-execution
// observable). Returns false when the body has no store.
func CorruptStoreIntoSlice(ca *slice.ComputeAddr) (Corruption, bool) {
	var body []*ir.Instr
	collectInstrs(ca.Inner.Body, &body)
	for _, in := range body {
		if in.Op == ir.Store {
			ca.Instrs = append(ca.Instrs, in)
			return Corruption{
				Name:  "store-into-slice",
				Check: CheckSlice,
				Pos:   in.Pos,
			}, true
		}
	}
	return Corruption{}, false
}

// CorruptDropAddr removes the first (lowest-ID) tracked access from the
// slice's address list, so that access's address would never reach shadow
// memory.
func CorruptDropAddr(p *ir.Program, ca *slice.ComputeAddr) (Corruption, bool) {
	if len(ca.Addrs) == 0 {
		return Corruption{}, false
	}
	dropped := ca.Addrs[0].Instr
	ca.Addrs = ca.Addrs[1:]
	return Corruption{
		Name:  "drop-addr",
		Check: CheckSlice,
		Pos:   p.Instrs[dropped].Pos,
	}, true
}

// CorruptDropLiveIn removes the first forwarded live-in of the first inner
// loop that has one — the "dropped produce" bug class: the worker would read
// a stale or unset scalar. Returns false when no inner loop forwards any
// live-in.
func CorruptDropLiveIn(par *mtcg.Parallelized) (Corruption, bool) {
	for _, inner := range par.Part.Inners {
		names := par.LiveIns[inner]
		if len(names) == 0 {
			continue
		}
		dropped := names[0]
		par.LiveIns[inner] = names[1:]
		_, firstRead := liveInNames(inner)
		return Corruption{
			Name:  "drop-live-in",
			Check: CheckMTCG,
			Pos:   firstRead[dropped],
		}, true
	}
	return Corruption{}, false
}

// CorruptDuplicateLiveIn forwards the first live-in of the first applicable
// inner loop twice, breaking the one-producer-per-queue (SPSC) discipline.
func CorruptDuplicateLiveIn(par *mtcg.Parallelized) (Corruption, bool) {
	for _, inner := range par.Part.Inners {
		names := par.LiveIns[inner]
		if len(names) == 0 {
			continue
		}
		par.LiveIns[inner] = append(names, names[0])
		return Corruption{
			Name:  "duplicate-live-in",
			Check: CheckMTCG,
			Pos:   inner.Pos,
		}, true
	}
	return Corruption{}, false
}

// CorruptDropInstrumentation removes the lowest-ID access from the signature
// instrumentation plan, so a speculative task performs an access the
// conflict checker never sees.
func CorruptDropInstrumentation(p *ir.Program, plan *SignaturePlan) (Corruption, bool) {
	ids := make([]int, 0, len(plan.Instrumented))
	for id := range plan.Instrumented {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return Corruption{}, false
	}
	sort.Ints(ids)
	delete(plan.Instrumented, ids[0])
	return Corruption{
		Name:  "drop-instrumentation",
		Check: CheckSignature,
		Pos:   p.Instrs[ids[0]].Pos,
	}, true
}

// CorruptDOALL fabricates a DOALL recommendation for a loop regardless of
// its dependences — the advisor bug class Advisor() exists to catch when
// the loop in fact carries a dependence.
func CorruptDOALL(loop *ir.Loop) (advisor.Recommendation, Corruption) {
	return advisor.Recommendation{
			Plan:   advisor.DOALL,
			Reason: "seeded corruption: unconditional DOALL",
		}, Corruption{
			Name:  "forced-doall",
			Check: CheckAdvisor,
			Pos:   loop.Pos,
		}
}

// CorruptSlotAccess retargets the lowest-ID load or store at another
// array's slot while leaving its Array string alone — the stale-slot bug
// class: the analyses keep reasoning about the named array while the
// executor reads and writes a different one. Returns false for programs
// with fewer than two arrays or no memory access.
func CorruptSlotAccess(p *ir.Program) (Corruption, bool) {
	if len(p.ArrayNames) < 2 {
		return Corruption{}, false
	}
	for _, in := range p.Instrs {
		if in.Op == ir.Load || in.Op == ir.Store {
			in.Slot = (in.Slot + 1) % len(p.ArrayNames)
			return Corruption{Name: "slot-access", Check: CheckSlots, Pos: in.Pos}, true
		}
	}
	return Corruption{}, false
}

// CorruptSlotLoopVar points the first loop's induction update at another
// scalar's slot: the loop would count in a variable its body never reads.
// Returns false for programs with fewer than two scalars or no loop.
func CorruptSlotLoopVar(p *ir.Program) (Corruption, bool) {
	if len(p.VarNames) < 2 || len(p.Loops) == 0 {
		return Corruption{}, false
	}
	l := p.Loops[0]
	l.VarSlot = (l.VarSlot + 1) % len(p.VarNames)
	return Corruption{Name: "slot-loop-var", Check: CheckSlots, Pos: l.Pos}, true
}

// CorruptSlotTable shifts the last array's slot-table base by one cell
// without touching ArrayBase — the two views of the layout disagree, so the
// addresses the executor signs are not the addresses Program.Addr reports.
// Table diagnostics carry no source position.
func CorruptSlotTable(p *ir.Program) (Corruption, bool) {
	if len(p.ArrayBases) == 0 {
		return Corruption{}, false
	}
	p.ArrayBases[len(p.ArrayBases)-1]++
	return Corruption{Name: "slot-table", Check: CheckSlots}, true
}
