package verify

import (
	"crossinv/internal/diag"
	"crossinv/internal/ir"
	"crossinv/internal/lang/token"
)

// Slots checks the invariant the executor rests on: ir.Lower resolved every
// name to a slot once, and the executor indexes by slot without looking at
// the name again. So every Instr.Slot and Loop.VarSlot must name the same
// array or scalar as the string beside it, and the slot tables must agree
// with the name-keyed Arrays/ArrayBase view the analyses read and tile the
// flat address space [0, AddrSpace) without gap or overlap — otherwise the
// analyses would reason about one program and the engines run another.
func Slots(p *ir.Program) diag.List {
	var out diag.List
	table := func(format string, args ...any) {
		out.Errorf(CheckSlots, token.Pos{}, format, args...)
	}

	n := len(p.ArrayNames)
	if len(p.ArraySizes) != n || len(p.ArrayBases) != n || len(p.ArraySorted) != n ||
		len(p.Arrays) != n || len(p.ArrayBase) != n {
		table("array tables disagree on the array count: names %d, sizes %d, bases %d, sorted %d, Arrays %d, ArrayBase %d",
			n, len(p.ArraySizes), len(p.ArrayBases), len(p.ArraySorted), len(p.Arrays), len(p.ArrayBase))
		return out // the per-slot checks below index all six
	}
	var next uint64
	for s, name := range p.ArrayNames {
		size, base := p.ArraySizes[s], p.ArrayBases[s]
		if mapped, ok := p.Arrays[name]; !ok || mapped != size {
			table("array slot %d (%s) has size %d but Arrays[%q] = %d", s, name, size, name, mapped)
		}
		if mapped, ok := p.ArrayBase[name]; !ok || mapped != base {
			table("array slot %d (%s) has base %d but ArrayBase[%q] = %d", s, name, base, name, mapped)
		}
		if size <= 0 || base != next {
			table("array slot %d (%s) spans [%d, %d); the flat address space continues at %d", s, name, base, int64(base)+size, next)
		}
		next = base + uint64(size)
	}
	if next != p.AddrSpace {
		table("arrays end at flat address %d but AddrSpace = %d", next, p.AddrSpace)
	}
	seen := make([]bool, n)
	for i, s := range p.ArraySorted {
		if s < 0 || s >= n || seen[s] {
			table("ArraySorted[%d] = %d is not a permutation of the array slots", i, s)
			break
		}
		seen[s] = true
		if i > 0 && p.ArrayNames[p.ArraySorted[i-1]] >= p.ArrayNames[s] {
			table("ArraySorted is not in ascending name order at %d (%s after %s); checksums would stop matching cached oracles",
				i, p.ArrayNames[s], p.ArrayNames[p.ArraySorted[i-1]])
		}
	}

	names := make(map[string]bool, len(p.VarNames))
	for s, name := range p.VarNames {
		if names[name] {
			table("scalar %q is interned twice (second slot %d); its definitions and uses would split", name, s)
		}
		names[name] = true
	}

	for _, in := range p.Instrs {
		switch in.Op {
		case ir.Load, ir.Store:
			if in.Slot < 0 || in.Slot >= n || p.ArrayNames[in.Slot] != in.Array {
				out.Errorf(CheckSlots, in.Pos,
					"instruction %d (%s) names array %q but its slot %d resolves to %s", in.ID, in, in.Array, in.Slot, slotName(p.ArrayNames, in.Slot))
			}
		case ir.ReadVar, ir.WriteVar:
			if in.Slot < 0 || in.Slot >= len(p.VarNames) || p.VarNames[in.Slot] != in.Var {
				out.Errorf(CheckSlots, in.Pos,
					"instruction %d (%s) names scalar %q but its slot %d resolves to %s", in.ID, in, in.Var, in.Slot, slotName(p.VarNames, in.Slot))
			}
		}
	}
	for _, l := range p.Loops {
		if l.VarSlot < 0 || l.VarSlot >= len(p.VarNames) || p.VarNames[l.VarSlot] != l.Var {
			out.Errorf(CheckSlots, l.Pos,
				"loop %q updates variable slot %d, which resolves to %s", l.Var, l.VarSlot, slotName(p.VarNames, l.VarSlot))
		}
	}
	return out
}

func slotName(names []string, slot int) string {
	if slot < 0 || slot >= len(names) {
		return "nothing (out of range)"
	}
	return names[slot]
}
