package interp_test

import (
	"reflect"
	"testing"

	"crossinv/internal/ir"
	"crossinv/internal/ir/interp"
)

// agreeWithReference runs p on the slot-resolved executor and on the
// name-keyed reference and fails on any observable difference: final memory,
// scalars, error, step count, the address stream shown to the sink, and the
// checksum.
func agreeWithReference(t *testing.T, p *ir.Program, src string) {
	t.Helper()
	env := interp.NewEnv(p)
	var got trafficLog
	env.Sink = &got
	gotErr := env.Exec(p.Body)

	ref := newRefEnv(p)
	var want trafficLog
	ref.Hooks = refHooks{OnLoad: want.Read, OnStore: want.Write}
	wantErr := ref.Exec(p.Body)

	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
		t.Fatalf("program:\n%s", src)
	}
	switch {
	case (gotErr == nil) != (wantErr == nil):
		fail("error = %v, reference %v", gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		fail("error = %q, reference %q", gotErr, wantErr)
	}
	if env.Steps != ref.Steps {
		fail("steps = %d, reference %d", env.Steps, ref.Steps)
	}
	for _, name := range p.ArrayNames {
		if !reflect.DeepEqual(env.Array(name), ref.Arrays[name]) {
			fail("array %s = %v, reference %v", name, env.Array(name), ref.Arrays[name])
		}
	}
	for slot, name := range p.VarNames {
		if env.Vars[slot] != ref.Vars[name] {
			fail("scalar %s = %d, reference %d", name, env.Vars[slot], ref.Vars[name])
		}
	}
	if len(ref.Vars) > len(p.VarNames) {
		fail("reference defined %d scalars, program interns %d", len(ref.Vars), len(p.VarNames))
	}
	if !reflect.DeepEqual(got, want) {
		fail("sink saw %v, reference hooks %v", got, want)
	}
	if env.Checksum() != ref.Checksum() {
		fail("checksum = %#x, reference %#x", env.Checksum(), ref.Checksum())
	}
}

// FuzzExecAgreesWithReference generates random loop trees — out-of-bounds
// faults, division and modulo by zero, nested conditionals, zero-trip and
// parallel loops — and holds the executor to the parent commit's tree
// walker on every one.
func FuzzExecAgreesWithReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 7, 2, 9, 4, 5, 1, 3, 4, 2, 2, 0, 3, 3, 1, 4, 10, 1, 0})
	f.Add([]byte("crossinv: the quick brown fox jumps over the lazy dog, twice over"))
	for seed := int64(1); seed <= 8; seed++ {
		data := make([]byte, 96)
		for i := range data {
			data[i] = byte(seed*131 + int64(i)*int64(i+7)*seed)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := genProgram(data)
		p, ok := compile(src)
		if !ok {
			t.Fatalf("generator wrote a program the front end rejects:\n%s", src)
		}
		agreeWithReference(t, p, src)
	})
}
