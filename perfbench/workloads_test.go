package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
)

func TestServingSpecs(t *testing.T) {
	for _, c := range []struct {
		d          servingDef
		lo, hi     float64
		withCrash  bool
		wantThread int
	}{
		{serveWrite, 10000, 120000, true, 4},
		{serveRead, 4000, 48000, false, 8},
	} {
		specs := c.d.specs(42, window)
		n := len(c.d.grid)
		if c.withCrash {
			n++
		}
		if len(specs) != n || len(c.d.grid) != 12 {
			t.Fatalf("got %d specs over a %d-point grid", len(specs), len(c.d.grid))
		}
		if c.d.grid[0] != c.lo || c.d.grid[11] != c.hi {
			t.Errorf("grid spans %v..%v, want %v..%v", c.d.grid[0], c.d.grid[11], c.lo, c.hi)
		}
		found := false
		for _, r := range c.d.grid {
			found = found || r == c.d.ref
		}
		if !found {
			t.Errorf("reference rate %v is not a grid rate", c.d.ref)
		}
		for i, s := range specs {
			if s.Seed != 42 || s.Duration != window || s.Threads != c.wantThread {
				t.Errorf("spec %d: seed %d, window %v, threads %d", i, s.Seed, s.Duration, s.Threads)
			}
			_, crash := s.Params["fault"]
			if crash != (c.withCrash && i == len(specs)-1) {
				t.Errorf("spec %d: crash params present = %v", i, crash)
			}
		}
		for _, s := range c.d.specs(42, setupWindow) {
			if s.Duration != sim.Microsecond {
				t.Errorf("set-up spec window %v, want 1µs", s.Duration)
			}
		}
	}
}

func TestEverySpecTakesTheSeed(t *testing.T) {
	for _, w := range workloads {
		specs, err := w.specs(99)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range append(specs, w.setupSpecs(99)...) {
			if s.Seed != 99 {
				t.Errorf("%s: %s has seed %d, want 99", w.name, s.Scenario, s.Seed)
			}
			if _, ok := harness.Lookup(s.Scenario); !ok {
				t.Errorf("%s: unknown scenario %s", w.name, s.Scenario)
			}
		}
	}
	figs, err := figureSpecs(1)
	if err != nil || len(figs) < 17 {
		t.Errorf("figure specs: %d, %v", len(figs), err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the metric and workload tables here.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, d := range defs {
			w = append(w, d.name+" "+d.unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("BENCHMARK.json %s:\n%v\nprogram reports:\n%v", kind, g, w)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSeedMovesValuesNotNames runs the serve-write grid ends and crash
// point on two seeds, on a short window: the simulated values must differ
// and the reported metric names must not.
func TestSeedMovesValuesNotNames(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	d := serveWrite
	d.grid = []float64{d.ref, d.grid[len(d.grid)-1]}
	eval := func(seed uint64) (map[string]bool, string) {
		specs := d.specs(seed, 60*sim.Microsecond)
		res := harness.RunSpecs(specs, width)
		var ck checks
		ev := evaluate(workload{name: "serve-write", serving: &d}, seed, specs, res, &ck)
		if len(ck.problems) > 0 {
			t.Fatalf("seed %d: %v", seed, ck.problems)
		}
		names := map[string]bool{}
		for _, l := range ev.info {
			names[l.name] = true
		}
		var fp string
		for _, sr := range res {
			fp += simFingerprint(sr.Result)
		}
		return names, fp
	}
	n1, fp1 := eval(defaultSeed)
	n2, fp2 := eval(heldOutSeed)
	if !reflect.DeepEqual(n1, n2) {
		t.Errorf("metric names differ across seeds: %v vs %v", n1, n2)
	}
	if fp1 == fp2 {
		t.Error("changing the seed left every simulated value unchanged")
	}
}
