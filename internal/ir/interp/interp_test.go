package interp_test

import (
	"testing"

	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
	"crossinv/internal/lang/parser"
)

func run(t *testing.T, src string) *interp.Env {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := ir.Lower(prog)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	env, err := interp.Run(p)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return env
}

func TestArithmetic(t *testing.T) {
	env := run(t, `func f() {
		var A[8]
		A[0] = 2 + 3 * 4
		A[1] = (2 + 3) * 4
		A[2] = 17 / 5
		A[3] = 17 % 5
		A[4] = 7 - 10
		A[5] = 3 / 0
		A[6] = 3 % 0
		A[7] = -4
	}`)
	want := []int64{14, 20, 3, 2, -3, 0, 0, -4}
	for i, w := range want {
		if got := env.Array("A")[i]; got != w {
			t.Errorf("A[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestComparisons(t *testing.T) {
	env := run(t, `func f() {
		var A[6]
		A[0] = 2 == 2
		A[1] = 2 != 2
		A[2] = 1 < 2
		A[3] = 2 <= 1
		A[4] = 3 > 1
		A[5] = 3 >= 4
	}`)
	want := []int64{1, 0, 1, 0, 1, 0}
	for i, w := range want {
		if got := env.Array("A")[i]; got != w {
			t.Errorf("A[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestLoopAndIf(t *testing.T) {
	env := run(t, `func f() {
		var A[10]
		for i = 0 .. 10 {
			if i % 2 == 0 {
				A[i] = i * 10
			} else {
				A[i] = 0 - i
			}
		}
	}`)
	for i := int64(0); i < 10; i++ {
		want := -i
		if i%2 == 0 {
			want = i * 10
		}
		if got := env.Array("A")[i]; got != want {
			t.Errorf("A[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestStencilProgram(t *testing.T) {
	// The Fig 1.3 program with checkable values.
	env := run(t, `func f() {
		var A[8], B[9]
		for k = 0 .. 9 { B[k] = k }
		for t = 0 .. 3 {
			parfor i = 0 .. 8 { A[i] = B[i] + B[i+1] }
			parfor j = 1 .. 9 { B[j] = A[j-1] + A[j-1] }
		}
	}`)
	// Golden values computed by direct simulation in Go.
	A := make([]int64, 8)
	B := make([]int64, 9)
	for k := range B {
		B[k] = int64(k)
	}
	for t2 := 0; t2 < 3; t2++ {
		for i := 0; i < 8; i++ {
			A[i] = B[i] + B[i+1]
		}
		for j := 1; j < 9; j++ {
			B[j] = A[j-1] + A[j-1]
		}
	}
	for i := range A {
		if env.Array("A")[i] != A[i] {
			t.Errorf("A[%d] = %d, want %d", i, env.Array("A")[i], A[i])
		}
	}
	for j := range B {
		if env.Array("B")[j] != B[j] {
			t.Errorf("B[%d] = %d, want %d", j, env.Array("B")[j], B[j])
		}
	}
}

func TestOutOfBoundsLoad(t *testing.T) {
	prog, err := parser.Parse("func f() { var A[3] x = A[5] }")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(p); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
}

// trafficLog is a Sink that records every address it is shown.
type trafficLog struct{ loads, stores []uint64 }

func (l *trafficLog) Read(a uint64)  { l.loads = append(l.loads, a) }
func (l *trafficLog) Write(a uint64) { l.stores = append(l.stores, a) }

func TestSinkObservesTraffic(t *testing.T) {
	prog, err := parser.Parse(`func f() {
		var A[4], B[4]
		parfor i = 0 .. 4 { A[i] = B[i] + 1 }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(p)
	var log trafficLog
	env.Sink = &log
	if err := env.Exec(p.Body); err != nil {
		t.Fatal(err)
	}
	if len(log.loads) != 4 || len(log.stores) != 4 {
		t.Fatalf("loads=%d stores=%d, want 4/4", len(log.loads), len(log.stores))
	}
	// B is laid out after A: loads at base(B)+i, stores at base(A)+i.
	for i := 0; i < 4; i++ {
		if log.loads[i] != p.Addr("B", int64(i)) {
			t.Errorf("load %d at %d, want %d", i, log.loads[i], p.Addr("B", int64(i)))
		}
		if log.stores[i] != p.Addr("A", int64(i)) {
			t.Errorf("store %d at %d, want %d", i, log.stores[i], p.Addr("A", int64(i)))
		}
	}
}

// TestForkSharesMemNotScalars pins the aliasing contract the engines rely
// on: forks see each other's array writes through the one Mem, and never
// each other's scalars or registers.
func TestForkSharesMemNotScalars(t *testing.T) {
	prog, _ := parser.Parse("func f() { var A[2] x = 7 }")
	p, _ := ir.Lower(prog)
	env := interp.NewEnv(p)
	if err := env.Exec(p.Body); err != nil {
		t.Fatal(err)
	}
	x := p.VarSlot("x")
	f, g := env.Fork(), env.Fork()
	if f.Vars[x] != 7 {
		t.Fatal("fork must copy scalars")
	}
	f.Vars[x] = 9
	f.Regs[0] = 42
	if env.Vars[x] != 7 || g.Vars[x] != 7 {
		t.Fatal("fork scalars must be private")
	}
	if env.Regs[0] == 42 || g.Regs[0] == 42 {
		t.Fatal("fork registers must be private")
	}
	f.Array("A")[0] = 5
	if env.Array("A")[0] != 5 || g.Mem[p.Addr("A", 0)] != 5 {
		t.Fatal("forks must share memory")
	}
	// Growing one fork's scalars or registers must not spill into the
	// neighbouring window of the shared backing allocation.
	f.Vars = append(f.Vars, 1)
	if f.Regs[0] != 42 {
		t.Fatal("appending to Vars overwrote Regs")
	}
}

func TestSnapshotRestore(t *testing.T) {
	prog, _ := parser.Parse("func f() { var A[3], B[2] A[0] = 1 A[1] = 2 B[1] = 3 }")
	p, _ := ir.Lower(prog)
	env, err := interp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want := env.Checksum()
	snap := env.Snapshot()
	// A torn speculative write: every cell of every array clobbered, through
	// the environment and through a fork of it.
	for i := range env.Mem {
		env.Mem[i] = -1
	}
	env.Fork().Array("B")[0] = 99
	if snap[0] != 1 {
		t.Fatal("snapshot must not alias live memory")
	}
	env.Restore(snap)
	if a, b := env.Array("A"), env.Array("B"); a[0] != 1 || a[1] != 2 || a[2] != 0 || b[0] != 0 || b[1] != 3 {
		t.Fatalf("restore not exact: A=%v B=%v", a, b)
	}
	if env.Checksum() != want {
		t.Fatal("checksum changed across snapshot/restore")
	}
}

func TestChecksumDistinguishesStates(t *testing.T) {
	prog, _ := parser.Parse("func f() { var A[4] A[2] = 5 }")
	p, _ := ir.Lower(prog)
	e1, _ := interp.Run(p)
	e2, _ := interp.Run(p)
	if e1.Checksum() != e2.Checksum() {
		t.Fatal("identical states must have identical checksums")
	}
	e2.Array("A")[0] = 1
	if e1.Checksum() == e2.Checksum() {
		t.Fatal("different states should (almost surely) differ in checksum")
	}
}
