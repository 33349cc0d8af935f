package fluidanimate_test

import (
	"testing"

	"crossinv/internal/workloads/workloadtest"
)

// TestEnginesMatchSequential asserts every applicable engine reproduces
// the sequential checksum; see internal/workloads/workloadtest.
func TestEnginesMatchSequential(t *testing.T) {
	workloadtest.EnginesMatchSequential(t, "FLUIDANIMATE")
}
