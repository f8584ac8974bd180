package scenarios

import (
	"strings"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
)

// TestSweepScenariosRejectMalformedGrids runs every registered sweep
// scenario with grids that cannot run as written: a bad leg on each axis,
// a duplicate leg, a fractional or single point count and a load range
// that is empty or starts at zero. Each must come back as an error before
// any point runs, never as a panic or as some other sweep.
func TestSweepScenariosRejectMalformedGrids(t *testing.T) {
	bad := []map[string]string{
		{"threadgrid": "0"},
		{"policygrid": "capped,"},
		{"batchgrid": "0"},
		{"cachegrid": "-1"},
		{"faultgrid": "crash,boom"},
		{"cachegrid": "0,0"},
		{"batchgrid": "8,08"},
		{"points": "2.5"},
		{"points": "1"},
		{"minkops": "0"},
		{"minkops": "x"},
		{"maxkops": "1"},
	}
	var sweeps int
	for _, name := range harness.Names() {
		if !strings.Contains(name, "sweep") {
			continue
		}
		sweeps++
		for _, params := range bad {
			_, err := harness.Run(harness.Spec{Scenario: name, Params: params, Duration: 20 * sim.Microsecond})
			if err == nil {
				t.Errorf("%s %v: ran, want an error", name, params)
			} else if strings.Contains(err.Error(), "panicked") {
				t.Errorf("%s %v: %v", name, params, err)
			}
		}
	}
	if sweeps < 13 {
		t.Fatalf("matched %d sweep scenarios, want every registered one (13)", sweeps)
	}
}
