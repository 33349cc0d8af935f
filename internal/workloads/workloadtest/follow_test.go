package workloadtest

import (
	"testing"

	"crossinv/internal/runtime/domore"
	"crossinv/internal/workloads"
)

// TestFollowDischargesChains: on the registry programs whose dependences
// form chains, DOMORE's assignment puts each iteration on the
// worker its newest dependence ran on, so at two workers almost no
// dependence needs a cross-thread condition — at most 2 % of the
// iterations that have one. Round-robin turned nearly every one into a
// condition.
func TestFollowDischargesChains(t *testing.T) {
	for _, name := range []string{"ECLAT", "LLUBENCH", "SYMM"} {
		e, err := workloads.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		golden := Make(e)
		golden.RunSequential()
		inst := Make(e)
		st := domore.RunParallel(inst.(domore.Workload), domore.Options{Workers: 2})
		if inst.Checksum() != golden.Checksum() {
			t.Errorf("%s: checksum %x != sequential %x", name, inst.Checksum(), golden.Checksum())
		}
		t.Logf("%s: %d iterations, %d with a dependence, %d conditions", name, st.Iterations, st.Dependences, st.SyncConditions)
		if st.Dependences < st.Iterations/2 {
			t.Errorf("%s: %d of %d iterations have a dependence; the test lost its point", name, st.Dependences, st.Iterations)
		}
		if 50*st.SyncConditions > st.Dependences {
			t.Errorf("%s: %d conditions for %d dependences, want at most 2 %%", name, st.SyncConditions, st.Dependences)
		}
	}
}
