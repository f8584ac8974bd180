package cluster

import (
	"runtime"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
)

// TestHugeBatchDepthBounded checks that a group-commit depth far past the
// queue cap costs no more memory than the queue can hold: the worker's
// drain buffer is sized by the smaller of the two.
func TestHugeBatchDepthBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := harness.RunSpecs([]harness.Spec{{
		Scenario: "cluster/point",
		Params:   map[string]string{"batch": "100000000"},
		Duration: sim.Microsecond,
	}}, 1)
	runtime.ReadMemStats(&after)
	if err := res[0].Err; err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %.1f MB", float64(alloc)/(1<<20))
	if alloc > 64<<20 {
		t.Errorf("batch=100000000 allocated %d MB, want under 64 MB", alloc>>20)
	}
}
