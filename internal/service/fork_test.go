package service

import (
	"maps"
	"reflect"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
)

// TestForkEqualsBuild checks that a single-node point run on a fork of a
// batch's snapshot — after a sibling point already ran on another fork of
// it — reports exactly what it reports on a freshly built node, for each
// backend × DRAM tier, and with a put log.
func TestForkEqualsBuild(t *testing.T) {
	cases := map[string]map[string]string{
		"memmode": {"tier": "memmode", "cache": "65536"},
		"pmemkv-putlog": {
			"backend": "pmemkv", "putlog": "1", "batch": "8", "linger": "500",
			"get": "0.3", "put": "0.7", "scan": "0",
		},
	}
	for _, backend := range []string{"pmemkv", "lsmkv"} {
		cases[backend+"-none"] = map[string]string{"backend": backend}
		cases[backend+"-hot"] = map[string]string{
			"backend": backend, "cache": "65536", "llckb": "16", "evict": "random",
		}
	}
	for name, params := range cases {
		t.Run(name, func(t *testing.T) {
			spec := func(offered string, seed uint64) harness.Spec {
				ps := maps.Clone(params)
				ps["offered"] = offered
				return harness.Spec{Params: ps, Threads: 2, Duration: 60 * sim.Microsecond, Seed: seed}
			}
			snaps := &harness.Snapshots{}
			sibling := spec("9000", 99)
			sibling.Snapshots = snaps
			if _, err := runPoint(sibling); err != nil {
				t.Fatal(err)
			}
			s := spec("4000", 7)
			s.Snapshots = snaps
			got, err := runPoint(s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := nodePoint(s, func(b nodeBuild) (node, error) { return b.build() })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				for k, w := range want.Metrics {
					if g := got.Metrics[k]; g != w {
						t.Errorf("metric %s = %v, want %v", k, g, w)
					}
				}
				t.Errorf("fork differs from a fresh build: ops %d/%d, p99 %v/%v", got.Ops, want.Ops,
					got.Latency.Percentile(0.99), want.Latency.Percentile(0.99))
			}
		})
	}
}
