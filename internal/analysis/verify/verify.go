// Package verify is the static plan verifier: an independent soundness
// checker for every parallelization plan the crossinv pipeline emits. The
// transform packages (partition → slice → MTCG → speccrossgen → advisor)
// make the safety-critical decisions of §3.3 and §4.3; this pass re-derives
// each decision's invariant directly from the IR and the PDG and checks the
// emitted plan against it, so a transform bug becomes a compile-time
// diagnostic instead of a data race:
//
//  1. partition soundness — no hard PDG edge flows worker → scheduler, the
//     scheduler set is closed under the §3.3.1 DAG-SCC fixpoint, and only
//     parallel inner-loop bodies may be worker-side;
//  2. slice purity — the computeAddr slice is store-free and (via the
//     shared taint fixpoint) never reads a value the worker partition may
//     write (§3.3.4), and every tracked access has an address register;
//  3. MTCG communication completeness — every cross-partition scalar
//     dependence is covered by exactly one produce/consume pair, and no
//     register value crosses the partition outside a queue (§3.3.2);
//  4. signature coverage — every may-read/may-write access inside a
//     speculative region is captured by the signature instrumentation plan,
//     and epoch boundaries sit only at invocation boundaries (§4.3);
//  5. advisor consistency — a DOALL verdict implies no loop-carried
//     dependence SCC in the loop's PDG (Chapter 2);
//  6. slot resolution — every slot the executor indexes by names the same
//     array or scalar as the string the analyses read, and the slot tables
//     agree with the name-keyed layout (slots.go).
//
// The package derives no plan itself: core builds each region's plan once
// and hands the pieces to these checks, which read them against the IR
// without reusing the transforms' own reasoning.
//
// Diagnostics are reported through internal/diag with source positions, so
// `crossinv -lint` can point at the offending line. The mutation helpers in
// mutate.go seed deliberate corruptions into plans and are reused as
// negative tests by the transform packages.
package verify

import (
	"crossinv/internal/analysis/depend"
	"crossinv/internal/analysis/pdg"
	"crossinv/internal/analysis/scc"
	"crossinv/internal/diag"
	"crossinv/internal/ir"
	"crossinv/internal/lang/token"
	"crossinv/internal/transform/advisor"
	"crossinv/internal/transform/mtcg"
	"crossinv/internal/transform/partition"
	"crossinv/internal/transform/slice"
)

// Check names, used as the diag.Diagnostic Check field.
const (
	CheckPartition = "partition"
	CheckSlice     = "slice"
	CheckMTCG      = "mtcg"
	CheckSignature = "signature"
	CheckAdvisor   = "advisor"
	CheckXDep      = "xdep"
	CheckSlots     = "slots"
)

// hardEdge reports whether the partition must honor the edge: everything
// except loop-carried memory edges between parallel bodies (enforced at
// runtime by the scheduler's shadow memory) and privatizable carried scalar
// edges (satisfied by MTCG's per-invocation live-in forwarding) — the same
// exclusions pdg.Graph.ToSCCGraph(true) applies for the partitioner.
func hardEdge(e pdg.Edge) bool {
	if e.Kind == pdg.MemoryEdge && e.LoopCarried && e.InnerToInner {
		return false
	}
	if e.Kind == pdg.ScalarEdge && e.LoopCarried && e.Privatizable {
		return false
	}
	return true
}

// Partition checks a computed scheduler/worker split against the PDG it was
// derived from: the pipeline invariant (all dependences flow scheduler →
// worker), closure under the §3.3.1 DAG-SCC fixpoint, and the structural
// rule that only parallel inner-loop bodies may run worker-side.
func Partition(part *partition.Result) diag.List {
	var out diag.List
	g := part.Graph
	prog := g.Prog

	// Every region instruction must have a side.
	for _, id := range g.Nodes {
		if _, ok := part.Side[id]; !ok {
			out.Errorf(CheckPartition, prog.Instrs[id].Pos,
				"instruction %d (%s) has no partition side", id, prog.Instrs[id])
		}
	}

	// Pipeline invariant: no hard dependence flows worker → scheduler.
	for _, e := range g.Edges {
		if !hardEdge(e) || e.Src == e.Dst {
			continue
		}
		if part.Side[e.Src] == partition.Worker && part.Side[e.Dst] == partition.Scheduler {
			out.Errorf(CheckPartition, prog.Instrs[e.Dst].Pos,
				"%s dependence flows worker -> scheduler: instruction %d (%s) at %s feeds scheduler instruction %d (%s)",
				e.Kind, e.Src, prog.Instrs[e.Src], prog.Instrs[e.Src].Pos, e.Dst, prog.Instrs[e.Dst])
		}
	}

	// DAG-SCC closure: every strongly connected component of the hard-edge
	// graph must be side-homogeneous (a mixed SCC means the fixpoint was not
	// reached: some cycle straddles the split).
	comps := scc.Tarjan(g.ToSCCGraph(true))
	for _, members := range comps.Members {
		if len(members) < 2 {
			continue
		}
		first := part.Side[g.Nodes[members[0]]]
		for _, m := range members[1:] {
			id := g.Nodes[m]
			if part.Side[id] != first {
				out.Errorf(CheckPartition, prog.Instrs[id].Pos,
					"dependence cycle straddles the partition: instruction %d (%s) is %s but its SCC contains %s instructions",
					id, prog.Instrs[id], part.Side[id], first)
				break
			}
		}
	}

	// Structural rule: the worker side may only contain instructions from
	// parallel inner-loop bodies; the outer loop's sequential region and all
	// loop-traversal code belong to the scheduler (§3.3.1's initial
	// assignment, which the fixpoint only ever moves toward the scheduler).
	eligible := map[int]bool{}
	for _, inner := range part.Inners {
		markBody(inner.Body, eligible)
	}
	for _, id := range g.Nodes {
		if part.Side[id] == partition.Worker && !eligible[id] {
			out.Errorf(CheckPartition, prog.Instrs[id].Pos,
				"sequential-region instruction %d (%s) assigned to the worker partition", id, prog.Instrs[id])
		}
	}
	return out
}

// markBody mirrors the partitioner's initial worker assignment: every
// instruction of the node list, including nested loop bounds and branch
// conditions.
func markBody(nodes []ir.Node, set map[int]bool) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.Instr:
			set[n.ID] = true
		case *ir.Loop:
			for _, in := range n.Lo {
				set[in.ID] = true
			}
			for _, in := range n.Hi {
				set[in.ID] = true
			}
			markBody(n.Body, set)
		case *ir.If:
			for _, in := range n.Cond {
				set[in.ID] = true
			}
			markBody(n.Then, set)
			markBody(n.Else, set)
		}
	}
}

// collectInstrs flattens a node list into instruction order, including loop
// bounds and branch conditions.
func collectInstrs(nodes []ir.Node, out *[]*ir.Instr) {
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.Instr:
			*out = append(*out, n)
		case *ir.Loop:
			*out = append(*out, n.Lo...)
			*out = append(*out, n.Hi...)
			collectInstrs(n.Body, out)
		case *ir.If:
			*out = append(*out, n.Cond...)
			collectInstrs(n.Then, out)
			collectInstrs(n.Else, out)
		}
	}
}

// workerWrittenArrays returns the arrays any worker-side instruction stores
// to — the state the computeAddr slice must never read (§3.3.4).
func workerWrittenArrays(p *ir.Program, part *partition.Result) map[string]bool {
	writes := map[string]bool{}
	for _, in := range p.Instrs {
		if in.Op == ir.Store && part.Side[in.ID] == partition.Worker {
			writes[in.Array] = true
		}
	}
	return writes
}

// Slice checks one computeAddr slice for purity and coverage: store-free,
// never reading (directly or through the taint fixpoint) a value the worker
// partition may write, and tracking the address of every memory access in
// the inner loop's body.
func Slice(p *ir.Program, part *partition.Result, ca *slice.ComputeAddr) diag.List {
	var out diag.List
	if ca == nil {
		return out
	}
	workerWrites := workerWrittenArrays(p, part)

	var body []*ir.Instr
	collectInstrs(ca.Inner.Body, &body)
	inBody := map[int]*ir.Instr{}
	for _, in := range body {
		inBody[in.ID] = in
	}
	t := TaintFromArrays(body, workerWrites)

	for _, in := range ca.Instrs {
		switch in.Op {
		case ir.Store:
			out.Errorf(CheckSlice, in.Pos,
				"computeAddr slice of loop %q contains a store to %q; the slice must be side-effect free", ca.Inner.Var, in.Array)
			continue
		case ir.WriteVar:
			out.Errorf(CheckSlice, in.Pos,
				"computeAddr slice of loop %q writes scalar %q; the slice must be side-effect free", ca.Inner.Var, in.Var)
			continue
		case ir.Load:
			if workerWrites[in.Array] {
				out.Errorf(CheckSlice, in.Pos,
					"computeAddr slice of loop %q loads from array %q, which the worker partition writes; the scheduler cannot run ahead of the workers", ca.Inner.Var, in.Array)
			}
		case ir.ReadVar:
			if t.Var[in.Var] {
				out.Errorf(CheckSlice, in.Pos,
					"computeAddr slice of loop %q reads scalar %q, whose value derives from worker-written arrays", ca.Inner.Var, in.Var)
			}
		}
		for _, use := range Uses(in) {
			if t.Reg[use] {
				out.Errorf(CheckSlice, in.Pos,
					"computeAddr slice of loop %q uses register r%d, whose value derives from worker-written arrays", ca.Inner.Var, use)
				break
			}
		}
	}

	// Address coverage: DOMORE's shadow memory only orders the addresses the
	// slice predicts, so an untracked access would race unsynchronized.
	tracked := map[int]bool{}
	for _, ta := range ca.Addrs {
		in, ok := inBody[ta.Instr]
		if !ok {
			out.Errorf(CheckSlice, ca.Inner.Pos,
				"computeAddr of loop %q tracks instruction %d, which is not in the loop body", ca.Inner.Var, ta.Instr)
			continue
		}
		tracked[ta.Instr] = true
		if t.Reg[ta.Reg] {
			out.Errorf(CheckSlice, in.Pos,
				"address register r%d of access %d (%s) derives from worker-written arrays; the scheduler cannot precompute it", ta.Reg, ta.Instr, in)
		}
	}
	for _, in := range body {
		if in.Op != ir.Load && in.Op != ir.Store {
			continue
		}
		if !tracked[in.ID] {
			out.Errorf(CheckSlice, in.Pos,
				"memory access %d (%s) in loop %q is not tracked by computeAddr; its address would never reach shadow memory", in.ID, in, ca.Inner.Var)
		}
	}
	return out
}

// MTCG checks communication completeness of a DOMORE-transformed region:
// every scalar the worker side reads before defining is forwarded by exactly
// one produce/consume pair (one live-in queue entry), no register value
// crosses the partition outside a queue, and every inner loop has exactly
// one computeAddr slice.
func MTCG(par *mtcg.Parallelized) diag.List {
	var out diag.List
	prog := par.Prog
	part := par.Part

	// Map each worker-side instruction to its inner loop, for edge reports.
	innerOf := map[int]*ir.Loop{}
	for _, inner := range part.Inners {
		set := map[int]bool{}
		markBody(inner.Body, set)
		for id := range set {
			innerOf[id] = inner
		}
	}

	// Register values cannot be forwarded: the queues carry synchronization
	// conditions and the invocation record carries bounds and scalar
	// live-ins, so a scheduler-defined register used worker-side has no
	// communication channel at all.
	for _, e := range part.Graph.Edges {
		if e.Kind != pdg.RegEdge {
			continue
		}
		if part.Side[e.Src] == partition.Scheduler && part.Side[e.Dst] == partition.Worker {
			out.Errorf(CheckMTCG, prog.Instrs[e.Dst].Pos,
				"register value r%d crosses the partition without a queue: scheduler instruction %d (%s) feeds worker instruction %d (%s)",
				prog.Instrs[e.Src].Dst, e.Src, prog.Instrs[e.Src], e.Dst, prog.Instrs[e.Dst])
		}
	}

	for _, inner := range part.Inners {
		ca := par.Slices[inner]
		if ca == nil {
			out.Errorf(CheckMTCG, inner.Pos,
				"inner loop %q has no computeAddr slice; the scheduler cannot dispatch its iterations", inner.Var)
		}

		need, firstRead := liveInNames(inner)
		forwarded := map[string]int{}
		for _, name := range par.LiveIns[inner] {
			forwarded[name]++
		}
		// Missing produce: the worker would read a stale or unset scalar.
		for _, name := range need {
			if forwarded[name] == 0 {
				out.Errorf(CheckMTCG, firstRead[name],
					"worker body of loop %q reads scalar %q but the scheduler never forwards it (missing produce/consume pair)", inner.Var, name)
			}
		}
		needSet := map[string]bool{}
		for _, name := range need {
			needSet[name] = true
		}
		for name, n := range forwarded {
			// Duplicate produce: the live-in queue would have two producers,
			// breaking the SPSC discipline.
			if n > 1 {
				out.Errorf(CheckMTCG, inner.Pos,
					"scalar %q forwarded to loop %q %d times; each live-in queue must have exactly one producer", name, inner.Var, n)
			}
			if !needSet[name] {
				out.Warningf(CheckMTCG, inner.Pos,
					"scalar %q forwarded to loop %q is not a live-in of its body (produce without consume)", name, inner.Var)
			}
		}
	}
	return out
}

// liveInNames independently recomputes the scalars an inner loop's body
// reads before any definition that dominates the read — the values MTCG
// must forward per invocation (§3.3.2 step 4). Unlike the generator's own
// bookkeeping this walk is path-sensitive for conditionals (a scalar defined
// in only one branch is not definitely defined after the If) and treats
// nested-loop definitions as maybe-absent (a zero-trip loop defines
// nothing), so it over-approximates the live-in set the plan must cover.
func liveInNames(inner *ir.Loop) (need []string, firstRead map[string]token.Pos) {
	firstRead = map[string]token.Pos{}
	seen := map[string]bool{}
	read := func(name string, pos token.Pos, defined map[string]bool) {
		if name == inner.Var || defined[name] || seen[name] {
			return
		}
		seen[name] = true
		need = append(need, name)
		firstRead[name] = pos
	}
	readInstrs := func(instrs []*ir.Instr, defined map[string]bool) {
		for _, in := range instrs {
			if in.Op == ir.ReadVar {
				read(in.Var, in.Pos, defined)
			}
		}
	}
	clone := func(m map[string]bool) map[string]bool {
		c := make(map[string]bool, len(m))
		for k, v := range m {
			c[k] = v
		}
		return c
	}
	var walk func(nodes []ir.Node, defined map[string]bool)
	walk = func(nodes []ir.Node, defined map[string]bool) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *ir.Instr:
				if n.Op == ir.ReadVar {
					read(n.Var, n.Pos, defined)
				}
				if n.Op == ir.WriteVar {
					defined[n.Var] = true
				}
			case *ir.Loop:
				readInstrs(n.Lo, defined)
				readInstrs(n.Hi, defined)
				// The loop may zero-trip, so body definitions are not
				// definite after it; walk the body on a scratch copy with
				// the induction variable bound.
				inBody := clone(defined)
				inBody[n.Var] = true
				walk(n.Body, inBody)
				defined[n.Var] = true // the header itself assigns it
			case *ir.If:
				readInstrs(n.Cond, defined)
				dThen := clone(defined)
				dElse := clone(defined)
				walk(n.Then, dThen)
				walk(n.Else, dElse)
				// Definite only when defined on both paths.
				for k := range dThen {
					if dElse[k] {
						defined[k] = true
					}
				}
			}
		}
	}
	walk(inner.Body, map[string]bool{})
	return need, firstRead
}

// SignaturePlan records which memory accesses (by instruction ID) the
// SPECCROSS instrumentation captures into signatures. The pipeline hooks
// every load and store executed inside a task (speccrossgen inserts the
// spec_access points via the executor's access sink), so the default plan marks every
// access in the region's parallel bodies; the verifier checks the plan
// against the region rather than trusting the construction.
type SignaturePlan struct {
	Instrumented map[int]bool
}

// SignaturePlanFor derives the instrumentation plan speccrossgen realizes
// for a region: every load/store inside the direct parfor children.
func SignaturePlanFor(outer *ir.Loop) *SignaturePlan {
	plan := &SignaturePlan{Instrumented: map[int]bool{}}
	for _, n := range outer.Body {
		if l, ok := n.(*ir.Loop); ok && l.Parallel {
			var instrs []*ir.Instr
			collectInstrs(l.Body, &instrs)
			for _, in := range instrs {
				if in.Op == ir.Load || in.Op == ir.Store {
					plan.Instrumented[in.ID] = true
				}
			}
		}
	}
	return plan
}

// Signatures checks a SPECCROSS region: every may-read/may-write access
// inside the speculative (parallel) bodies is covered by the signature
// instrumentation plan, the sequential interleaved code is privatizable
// (runs uninstrumented during the control replay, so it must not store to
// shared arrays nor read arrays the parallel loops write — the Fig 4.1
// constraint), and epoch boundaries sit only at invocation boundaries.
func Signatures(p *ir.Program, outer *ir.Loop, plan *SignaturePlan) diag.List {
	var out diag.List
	var inners []*ir.Loop
	var seqNodes []ir.Node
	for _, n := range outer.Body {
		if l, ok := n.(*ir.Loop); ok && l.Parallel {
			inners = append(inners, l)
		} else {
			seqNodes = append(seqNodes, n)
		}
	}
	if len(inners) == 0 {
		out.Errorf(CheckSignature, outer.Pos,
			"region loop %q has no parallel inner loop: no epochs to speculate across", outer.Var)
		return out
	}

	parallelWrites := map[string]bool{}
	var parInstrs []*ir.Instr
	for _, inner := range inners {
		collectInstrs(inner.Body, &parInstrs)
	}
	for _, in := range parInstrs {
		if in.Op == ir.Store {
			parallelWrites[in.Array] = true
		}
	}

	// Sequential privatizability (the replayed skeleton runs without
	// signatures, so nothing it does may conflict with speculative tasks).
	var seqInstrs []*ir.Instr
	collectInstrs(seqNodes, &seqInstrs)
	for _, inner := range inners {
		seqInstrs = append(seqInstrs, inner.Lo...)
		seqInstrs = append(seqInstrs, inner.Hi...)
	}
	for _, in := range seqInstrs {
		switch in.Op {
		case ir.Store:
			out.Errorf(CheckSignature, in.Pos,
				"sequential region stores to array %q outside signature instrumentation; the region is not privatizable", in.Array)
		case ir.Load:
			if parallelWrites[in.Array] {
				out.Errorf(CheckSignature, in.Pos,
					"sequential region reads array %q, which the parallel loops write; the epoch schedule cannot be precomputed", in.Array)
			}
		}
	}

	// Epoch boundaries: a parallel loop that is not a direct child of the
	// region loop does not become an epoch — inside the sequential skeleton
	// it would run during the uninstrumented replay (an error), inside a
	// task body it merely serializes (a warning).
	var flagNested func(nodes []ir.Node, inTask bool)
	flagNested = func(nodes []ir.Node, inTask bool) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *ir.Loop:
				if n.Parallel {
					if inTask {
						out.Warningf(CheckSignature, n.Pos,
							"parfor %q nested inside a task body executes sequentially within one task", n.Var)
					} else {
						out.Errorf(CheckSignature, n.Pos,
							"parfor %q is not a direct child of region loop %q; epoch boundaries must sit at invocation boundaries", n.Var, outer.Var)
					}
				}
				flagNested(n.Body, inTask)
			case *ir.If:
				flagNested(n.Then, inTask)
				flagNested(n.Else, inTask)
			}
		}
	}
	flagNested(seqNodes, false)
	for _, inner := range inners {
		flagNested(inner.Body, true)
	}

	// Coverage: every access a speculative task may execute must land in a
	// signature, or the checker can miss a true cross-epoch conflict.
	if plan == nil {
		plan = &SignaturePlan{Instrumented: map[int]bool{}}
	}
	for _, in := range parInstrs {
		if in.Op != ir.Load && in.Op != ir.Store {
			continue
		}
		if !plan.Instrumented[in.ID] {
			out.Errorf(CheckSignature, in.Pos,
				"memory access %d (%s) in a speculative task is not covered by signature instrumentation; the checker would miss its conflicts", in.ID, in)
		}
	}
	return out
}

// Advisor checks a Chapter 2 recommendation against the loop's PDG: a DOALL
// verdict must be backed by the absence of any loop-carried dependence SCC,
// and a parfor annotation must not be disproven by the affine tests.
func Advisor(p *ir.Program, dep *depend.Result, loop *ir.Loop, rec advisor.Recommendation) diag.List {
	var out diag.List
	if rec.Plan == advisor.DOALL {
		g := pdg.Build(p, dep, loop)
		comps := scc.Tarjan(g.ToSCCGraph(false))
		for _, e := range g.Edges {
			if !e.LoopCarried {
				continue
			}
			kind := "dependence"
			if si, di := g.Index[e.Src], g.Index[e.Dst]; comps.Comp[si] == comps.Comp[di] {
				kind = "dependence cycle"
			}
			out.Errorf(CheckAdvisor, loop.Pos,
				"DOALL verdict for loop %q contradicts the PDG: loop-carried %s %s between %d (%s at %s) and %d (%s)",
				loop.Var, e.Kind, kind,
				e.Src, p.Instrs[e.Src], p.Instrs[e.Src].Pos, e.Dst, p.Instrs[e.Dst])
			break // one witness suffices
		}
	}
	if loop.Parallel && dep.ClassifyParallel(loop) == depend.Disproven {
		out.Errorf(CheckAdvisor, loop.Pos,
			"parfor annotation on loop %q is disproven: the affine tests found a definite cross-iteration dependence", loop.Var)
	}
	return out
}
