package service

import (
	"reflect"
	"strings"
	"testing"

	"optanestudy/internal/harness"
)

// sweepSpec is a sweep spec over base point params plus the given grid
// params (key, value pairs) and a fixed three-point load grid.
func sweepSpec(base map[string]string, grid ...string) harness.Spec {
	params := map[string]string{"minkops": "1000", "maxkops": "3000", "points": "3"}
	for k, v := range base {
		params[k] = v
	}
	for i := 0; i+1 < len(grid); i += 2 {
		params[grid[i]] = grid[i+1]
	}
	return harness.Spec{Params: params, Threads: 4}
}

// TestSweepLegsAxes pins the leg expansion over every axis: the base leg
// is the input params untouched, companions reach injecting legs only,
// failing-over fault legs get a standby while stall legs do not, and
// suffixes nest in table order.
func TestSweepLegsAxes(t *testing.T) {
	base := map[string]string{"backend": "pmemkv", "get": "0.5", "put": "0.5"}
	cases := []struct {
		name    string
		grid    []string
		suffix  []string
		threads []int
		// set lists, per leg, the params the leg adds to base.
		set []map[string]string
	}{
		{
			name:    "threads",
			grid:    []string{"threadgrid", "4,16"},
			suffix:  []string{"@t4", "@t16"},
			threads: []int{4, 16},
			set:     []map[string]string{nil, nil},
		},
		{
			name:   "policy",
			grid:   []string{"policygrid", "capped,local-packed"},
			suffix: []string{"@capped", "@local-packed"},
			set:    []map[string]string{{"policy": "capped"}, {"policy": "local-packed"}},
		},
		{
			name:   "batch",
			grid:   []string{"batchgrid", "1,8", "batchlinger", "500"},
			suffix: []string{"@b1", "@b8"},
			set:    []map[string]string{nil, {"batch": "8", "linger": "500"}},
		},
		{
			name:   "cache",
			grid:   []string{"cachegrid", "0,4096", "cachequota", "1024", "cachetier", "memmode"},
			suffix: []string{"@c0", "@c4096"},
			set:    []map[string]string{nil, {"cache": "4096", "quota": "1024", "tier": "memmode"}},
		},
		{
			name:   "fault",
			grid:   []string{"faultgrid", "none,crash,stall", "detect", "2000"},
			suffix: []string{"@fnone", "@fcrash", "@fstall"},
			set: []map[string]string{
				nil,
				{"fault": "crash", "replicate": "1", "detect": "2000"},
				{"fault": "stall", "detect": "2000"},
			},
		},
		{
			name:   "one-leg axis injects without a suffix",
			grid:   []string{"batchgrid", "8"},
			suffix: []string{""},
			set:    []map[string]string{{"batch": "8"}},
		},
		{
			name: "all five nest in table order",
			grid: []string{
				"threadgrid", "2,4", "policygrid", "capped", "batchgrid", "1,8",
				"cachegrid", "0,4096", "faultgrid", "none,crash",
			},
			suffix: []string{
				"@t2@b1@c0@fnone", "@t2@b1@c0@fcrash", "@t2@b1@c4096@fnone", "@t2@b1@c4096@fcrash",
				"@t2@b8@c0@fnone", "@t2@b8@c0@fcrash", "@t2@b8@c4096@fnone", "@t2@b8@c4096@fcrash",
				"@t4@b1@c0@fnone", "@t4@b1@c0@fcrash", "@t4@b1@c4096@fnone", "@t4@b1@c4096@fcrash",
				"@t4@b8@c0@fnone", "@t4@b8@c0@fcrash", "@t4@b8@c4096@fnone", "@t4@b8@c4096@fcrash",
			},
			threads: []int{2, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			legs, err := SweepLegs(sweepSpec(base, tc.grid...), "service/kv/pmemkv")
			if err != nil {
				t.Fatal(err)
			}
			if len(legs) != len(tc.suffix) {
				t.Fatalf("%d legs, want %d", len(legs), len(tc.suffix))
			}
			for i, leg := range legs {
				if leg.Suffix != tc.suffix[i] {
					t.Errorf("leg %d suffix %q, want %q", i, leg.Suffix, tc.suffix[i])
				}
				if leg.Scenario != "service/kv/pmemkv" || leg.MinKops != 1000 || leg.MaxKops != 3000 || leg.Points != 3 {
					t.Errorf("leg %d sweep %+v lost the spec's grid", i, leg.SweepConfig)
				}
				threads := 4
				if tc.threads != nil {
					threads = tc.threads[i]
				}
				if leg.Threads != threads {
					t.Errorf("leg %d threads %d, want %d", i, leg.Threads, threads)
				}
				if tc.set == nil {
					continue
				}
				want := make(map[string]string, len(base))
				for k, v := range base {
					want[k] = v
				}
				for k, v := range tc.set[i] {
					want[k] = v
				}
				if !reflect.DeepEqual(leg.Params, want) {
					t.Errorf("leg %d params %v, want %v", i, leg.Params, want)
				}
			}
		})
	}
}

// TestSweepLegsCompanionsNeedTheirGrid pins that a companion without its
// grid param is not swallowed: it reaches the point scenario, which
// reads it or rejects it as unknown.
func TestSweepLegsCompanionsNeedTheirGrid(t *testing.T) {
	legs, err := SweepLegs(sweepSpec(nil, "detect", "5000", "batchlinger", "500"), "cluster/point")
	if err != nil {
		t.Fatal(err)
	}
	if len(legs) != 1 || legs[0].Params["detect"] != "5000" || legs[0].Params["batchlinger"] != "500" {
		t.Fatalf("companions without a grid expanded to %v", legs)
	}
}

// TestSweepLegsRequiresLoadGrid pins that a sweep spec without its load
// grid is an error, not a default grid.
func TestSweepLegsRequiresLoadGrid(t *testing.T) {
	for _, key := range []string{"minkops", "maxkops", "points"} {
		spec := sweepSpec(nil)
		delete(spec.Params, key)
		if _, err := SweepLegs(spec, "service/kv/pmemkv"); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("missing %s: err %v, want one naming it", key, err)
		}
	}
}
