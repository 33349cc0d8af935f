// Package fluidanimate ports the PARSEC fluidanimate benchmark — the
// paper's case study (§5.4, Figs 5.5–5.6): a smoothed-particle-
// hydrodynamics frame loop of eight phases (Fig 5.5's ClearParticles …
// AdvanceParticles), where particles interact through a uniform grid of
// cells and a particle can be the neighbor of particles in adjacent cells —
// the statically-unanalyzable update pattern that forces LOCALWRITE or
// DOANY parallelizations of the interaction phases.
//
// The port uses fixed-point integer physics so every execution strategy is
// bit-exact comparable. Tasks are cells; under the owner-computes rule each
// phase's task writes only its own cell's particles, so phases are DOALL
// across cells and the cross-phase dependences (positions → grid → density
// → force → movement) are exactly the cross-invocation dependences the
// paper's techniques target (Table 5.3 measures a minimum distance of 54
// tasks on some of them).
package fluidanimate

import (
	"runtime"
	"sync"
	"sync/atomic"

	"crossinv/internal/runtime/barrier"
	"crossinv/internal/runtime/signature"
	"crossinv/internal/workloads"
)

// NumPhases is the number of parallel invocations per frame (Fig 5.5).
const NumPhases = 8

// Phase indices.
const (
	PhaseClear = iota
	PhaseRebuild
	PhaseInitDensities
	PhaseDensities
	PhaseDensities2
	PhaseForces
	PhaseCollisions
	PhaseAdvance
)

// PhaseNames matches Fig 5.5's function names.
var PhaseNames = [NumPhases]string{
	"ClearParticles", "RebuildGrid", "InitDensitiesAndForces",
	"ComputeDensities", "ComputeDensities2", "ComputeForces",
	"ProcessCollisions", "AdvanceParticles",
}

// Address planes for conflict tracking (cell granular).
const (
	planeBucket = iota
	planeDensity
	planeForce
	planePos
	planeVel
	planeCellOf
	numPlanes
)

// Fluid is one benchmark instance.
type Fluid struct {
	// G is the grid side; Cells = G·G.
	G, Cells int
	// P is the particle count.
	P int
	// Frames is the frame-loop trip count.
	Frames int

	// Particle state, fixed point (20.12).
	px, py, vx, vy []int64
	fx, fy         []int64
	density        []int64
	cellOf         []int32
	// Buckets are stored flat (bucketData[c·P+i], bucketLen[c]) rather than
	// as slices-of-slices: speculative execution may read a bucket while
	// its owner rebuilds it, and stale int32s are memory-safe where torn
	// slice headers would not be (the conflict is then caught by the
	// signature checker and rolled back).
	bucketData []int32
	bucketLen  []int32

	// joinDone supports the DOMORE adapter's invocation join (see
	// DomoreJoin): completed-task counter per invocation.
	joinDone atomic.Int64
}

const fp = 1 << 12 // fixed-point unit

// New builds a deterministic instance. scale 1 gives a 12×12 grid, 1440
// particles, and 62 frames (496 epochs, near Table 5.3's 1488 at scale 3).
func New(scale int) *Fluid {
	if scale <= 0 {
		scale = 1
	}
	f := &Fluid{G: 12, Frames: 62 * scale}
	f.Cells = f.G * f.G
	f.P = f.Cells * 10
	f.px = make([]int64, f.P)
	f.py = make([]int64, f.P)
	f.vx = make([]int64, f.P)
	f.vy = make([]int64, f.P)
	f.fx = make([]int64, f.P)
	f.fy = make([]int64, f.P)
	f.density = make([]int64, f.P)
	f.cellOf = make([]int32, f.P)
	f.bucketData = make([]int32, f.Cells*f.P)
	f.bucketLen = make([]int32, f.Cells)
	rng := workloads.NewRng(0xF1D)
	world := int64(f.G) * fp
	for p := 0; p < f.P; p++ {
		f.px[p] = int64(rng.Intn(int(world)))
		f.py[p] = int64(rng.Intn(int(world)))
		f.vx[p] = int64(rng.Intn(fp/2)) - fp/4
		f.vy[p] = int64(rng.Intn(fp/2)) - fp/4
		f.cellOf[p] = f.cellAt(f.px[p], f.py[p])
	}
	return f
}

func (f *Fluid) cellAt(x, y int64) int32 {
	cx := int(x / fp)
	cy := int(y / fp)
	if cx < 0 {
		cx = 0
	}
	if cx >= f.G {
		cx = f.G - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= f.G {
		cy = f.G - 1
	}
	return int32(cy*f.G + cx)
}

// neighbors appends cell c's 3×3 neighborhood (including c).
func (f *Fluid) neighbors(c int, out []int) []int {
	cx, cy := c%f.G, c/f.G
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			nx, ny := cx+dx, cy+dy
			if nx >= 0 && nx < f.G && ny >= 0 && ny < f.G {
				out = append(out, ny*f.G+nx)
			}
		}
	}
	return out
}

// Name implements workloads.Instance.
func (f *Fluid) Name() string { return "FLUIDANIMATE" }

// cell returns cell c's particle list view.
func (f *Fluid) cell(c int) []int32 {
	return f.bucketData[c*f.P : c*f.P+int(f.bucketLen[c])]
}

// phase executes one phase for one owner cell (the owner-computes rule:
// only state of particles in cell c — or cell c's bucket — is written).
func (f *Fluid) phase(ph, c int) {
	switch ph {
	case PhaseClear:
		f.bucketLen[c] = 0
	case PhaseRebuild:
		// LOCALWRITE redundancy: every task scans all particles, keeping
		// only its own (§2.2's redundant traversal).
		n := int32(0)
		for p := 0; p < f.P; p++ {
			if int(f.cellOf[p]) == c {
				f.bucketData[c*f.P+int(n)] = int32(p)
				n++
			}
		}
		f.bucketLen[c] = n
	case PhaseInitDensities:
		for _, p := range f.cell(c) {
			f.density[p] = fp
			f.fx[p] = 0
			f.fy[p] = -fp / 8 // gravity
		}
	case PhaseDensities:
		var nb []int
		nb = f.neighbors(c, nb)
		for _, p := range f.cell(c) {
			for _, n := range nb {
				for _, q := range f.cell(n) {
					if q == p {
						continue
					}
					dx := f.px[p] - f.px[int(q)]
					dy := f.py[p] - f.py[int(q)]
					d2 := (dx*dx + dy*dy) / fp
					if d2 < fp {
						f.density[p] += (fp - d2) / 16
					}
				}
			}
		}
	case PhaseDensities2:
		for _, p := range f.cell(c) {
			f.density[p] = f.density[p] * 9 / 10
		}
	case PhaseForces:
		var nb []int
		nb = f.neighbors(c, nb)
		for _, p := range f.cell(c) {
			for _, n := range nb {
				for _, q := range f.cell(n) {
					if q == p {
						continue
					}
					dx := f.px[p] - f.px[int(q)]
					dy := f.py[p] - f.py[int(q)]
					d2 := (dx*dx + dy*dy) / fp
					if d2 < fp && d2 > 0 {
						press := (f.density[p] + f.density[int(q)]) / 2
						f.fx[p] += dx * press / (d2 + 1) / 64
						f.fy[p] += dy * press / (d2 + 1) / 64
					}
				}
			}
		}
	case PhaseCollisions:
		world := int64(f.G) * fp
		for _, p := range f.cell(c) {
			if f.px[p] < 0 || f.px[p] >= world {
				f.vx[p] = -f.vx[p] * 7 / 8
			}
			if f.py[p] < 0 || f.py[p] >= world {
				f.vy[p] = -f.vy[p] * 7 / 8
			}
		}
	case PhaseAdvance:
		world := int64(f.G) * fp
		for _, p := range f.cell(c) {
			f.vx[p] += f.fx[p] / 32
			f.vy[p] += f.fy[p] / 32
			f.px[p] += f.vx[p] / 16
			f.py[p] += f.vy[p] / 16
			if f.px[p] < 0 {
				f.px[p] = 0
			}
			if f.px[p] >= world {
				f.px[p] = world - 1
			}
			if f.py[p] < 0 {
				f.py[p] = 0
			}
			if f.py[p] >= world {
				f.py[p] = world - 1
			}
			f.cellOf[p] = f.cellAt(f.px[p], f.py[p])
		}
	}
}

// RunSequential implements workloads.Instance.
func (f *Fluid) RunSequential() {
	for fr := 0; fr < f.Frames; fr++ {
		for ph := 0; ph < NumPhases; ph++ {
			for c := 0; c < f.Cells; c++ {
				f.phase(ph, c)
			}
		}
	}
}

// Checksum implements workloads.Instance.
func (f *Fluid) Checksum() uint64 {
	h := uint64(1469598103934665603)
	h = workloads.FoldChecksum(h, f.px)
	h = workloads.FoldChecksum(h, f.py)
	h = workloads.FoldChecksum(h, f.vx)
	h = workloads.FoldChecksum(h, f.vy)
	h = workloads.FoldChecksum(h, f.density)
	return h
}

// access reports the cell-granular accesses of (phase, cell): each address
// the task writes to write, and each address it reads to read, unless read
// is nil. One description serves both engine views. SPECCROSS's signature
// records both sets. DOMORE's scheduler shadows only the writes, because
// Sequential's join already orders every read after the phases before it,
// so its view skips the 144 reads of RebuildGrid and the 27 of each
// neighbour phase rather than build and discard them.
func (f *Fluid) access(ph, c int, read, write func(uint64)) {
	// Cell-contiguous layout (cell·numPlanes + plane): one task's writes
	// form a tight address cluster, which keeps range signatures usable and
	// is also how the real program's per-cell structs would sit in memory.
	plane := func(pl, cell int) uint64 { return uint64(cell*numPlanes + pl) }
	switch ph {
	case PhaseClear:
		write(plane(planeBucket, c))
	case PhaseRebuild:
		write(plane(planeBucket, c))
		if read != nil {
			for cc := 0; cc < f.Cells; cc++ {
				read(plane(planeCellOf, cc))
			}
		}
	case PhaseInitDensities:
		write(plane(planeDensity, c))
		write(plane(planeForce, c))
		if read != nil {
			read(plane(planeBucket, c))
		}
	case PhaseDensities, PhaseForces:
		if ph == PhaseDensities {
			write(plane(planeDensity, c))
		} else {
			write(plane(planeForce, c))
		}
		if read != nil {
			var nb [9]int // on the stack: the list never leaves access
			for _, n := range f.neighbors(c, nb[:0]) {
				read(plane(planeBucket, n))
				read(plane(planePos, n))
				read(plane(planeDensity, n))
			}
		}
	case PhaseDensities2:
		write(plane(planeDensity, c))
		if read != nil {
			read(plane(planeBucket, c))
		}
	case PhaseCollisions:
		write(plane(planeVel, c))
		if read != nil {
			read(plane(planeBucket, c))
			read(plane(planePos, c))
		}
	case PhaseAdvance:
		write(plane(planePos, c))
		write(plane(planeVel, c))
		write(plane(planeCellOf, c))
		if read != nil {
			read(plane(planeBucket, c))
			read(plane(planeForce, c))
		}
	}
}

// --- speccross.Workload (FLUIDANIMATE-2: the whole frame loop) ---

// Epochs implements speccross.Workload.
func (f *Fluid) Epochs() int { return f.Frames * NumPhases }

// Tasks implements speccross.Workload.
func (f *Fluid) Tasks(epoch int) int { return f.Cells }

// Run implements speccross.Workload.
func (f *Fluid) Run(epoch, task, tid int, sig *signature.Signature) {
	ph := epoch % NumPhases
	if sig != nil {
		f.access(ph, task, sig.Read, sig.Write)
	}
	f.phase(ph, task)
}

// Snapshot implements speccross.Workload.
func (f *Fluid) Snapshot() any {
	return &snapshot{
		px: append([]int64(nil), f.px...), py: append([]int64(nil), f.py...),
		vx: append([]int64(nil), f.vx...), vy: append([]int64(nil), f.vy...),
		fx: append([]int64(nil), f.fx...), fy: append([]int64(nil), f.fy...),
		density:    append([]int64(nil), f.density...),
		cellOf:     append([]int32(nil), f.cellOf...),
		bucketData: append([]int32(nil), f.bucketData...),
		bucketLen:  append([]int32(nil), f.bucketLen...),
	}
}

type snapshot struct {
	px, py, vx, vy, fx, fy, density []int64
	cellOf                          []int32
	bucketData, bucketLen           []int32
}

// Restore implements speccross.Workload.
func (f *Fluid) Restore(sn any) {
	s := sn.(*snapshot)
	copy(f.px, s.px)
	copy(f.py, s.py)
	copy(f.vx, s.vx)
	copy(f.vy, s.vy)
	copy(f.fx, s.fx)
	copy(f.fy, s.fy)
	copy(f.density, s.density)
	copy(f.cellOf, s.cellOf)
	copy(f.bucketData, s.bucketData)
	copy(f.bucketLen, s.bucketLen)
}

// EpochLabel implements speccross.Labeler.
func (f *Fluid) EpochLabel(epoch int) string { return PhaseNames[epoch%NumPhases] }

// --- domore.Workload (FLUIDANIMATE-1 and the Fig 5.6 DOMORE plans) ---

// Invocations implements domore.Workload.
func (f *Fluid) Invocations() int { return f.Frames * NumPhases }

// Iterations implements domore.Workload.
func (f *Fluid) Iterations(inv int) int { return f.Cells }

// Sequential implements domore.Workload. Phase boundaries inside a frame
// consume the previous phase's worker results, so the scheduler must join
// before proceeding — the constraint that keeps DOMORE from overlapping
// FLUIDANIMATE's invocations (Fig 5.1(d)'s flat curve). The join is
// implemented by waiting for the completed-task counter.
func (f *Fluid) Sequential(inv int) {
	want := int64(inv) * int64(f.Cells)
	for spins := 0; f.joinDone.Load() < want; spins++ {
		if spins > 8 {
			runtime.Gosched()
		}
	}
}

// ComputeAddr implements domore.Workload: the iteration's write set, the
// addresses the scheduler shadows.
func (f *Fluid) ComputeAddr(inv, iter int, buf []uint64) []uint64 {
	f.access(inv%NumPhases, iter, nil, func(a uint64) { buf = append(buf, a) })
	return buf
}

// Execute implements domore.Workload.
func (f *Fluid) Execute(inv, iter, tid int) {
	f.phase(inv%NumPhases, iter)
	f.joinDone.Add(1)
}

// --- Manual DOANY parallelization (the hand-written PARSEC version) ---

// RunManualDOANY executes the frame loop the way the PARSEC programmers
// parallelized it (§5.4): every phase is split across workers by cell, the
// interaction phases update both sides of each pair under an array of
// per-cell locks (DOANY), and a barrier separates phases.
func (f *Fluid) RunManualDOANY(workers int) {
	locks := make([]sync.Mutex, f.Cells)
	bar := barrier.New(workers)
	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for fr := 0; fr < f.Frames; fr++ {
				for ph := 0; ph < NumPhases; ph++ {
					for c := tid; c < f.Cells; c += workers {
						if ph == PhaseDensities || ph == PhaseForces {
							f.pairPhaseLocked(ph, c, locks)
						} else {
							f.phase(ph, c)
						}
					}
					bar.Wait()
				}
			}
		}(tid)
	}
	wg.Wait()
}

// pairPhaseLocked is the DOANY variant of the interaction phases: each
// (p,q) pair is computed once and both particles are updated while holding
// both cells' locks in ascending order. The outcome is order-insensitive
// because the contributions are commutative sums — the DOANY requirement
// (§2.2). To remain bit-identical with the owner-computes versions, the
// pair contribution is applied from both perspectives exactly as the
// redundant version computes them.
func (f *Fluid) pairPhaseLocked(ph, c int, locks []sync.Mutex) {
	var nb []int
	nb = f.neighbors(c, nb)
	for _, n := range nb {
		if n < c {
			continue // each unordered cell pair handled once
		}
		a, b := c, n
		locks[a].Lock()
		if b != a {
			locks[b].Lock()
		}
		f.pairContrib(ph, c, n)
		if n != c {
			f.pairContrib(ph, n, c)
		}
		if b != a {
			locks[b].Unlock()
		}
		locks[a].Unlock()
	}
}

// pairContrib applies the phase's one-sided contribution: owner cell's
// particles accumulate from src cell's particles.
func (f *Fluid) pairContrib(ph, owner, src int) {
	for _, p := range f.cell(owner) {
		for _, q := range f.cell(src) {
			if q == p {
				continue
			}
			dx := f.px[p] - f.px[int(q)]
			dy := f.py[p] - f.py[int(q)]
			d2 := (dx*dx + dy*dy) / fp
			if ph == PhaseDensities {
				if d2 < fp {
					f.density[p] += (fp - d2) / 16
				}
			} else if d2 < fp && d2 > 0 {
				press := (f.density[p] + f.density[int(q)]) / 2
				f.fx[p] += dx * press / (d2 + 1) / 64
				f.fy[p] += dy * press / (d2 + 1) / 64
			}
		}
	}
}

func init() {
	workloads.Register(workloads.Entry{
		Name: "FLUIDANIMATE", Suite: "Parsec", Function: "frame loop", Plan: "LOCALWRITE",
		DomoreOK: true, SpecOK: true, Exact: true,
		Make: func(scale int) workloads.Instance { return New(scale) },
	})
}
