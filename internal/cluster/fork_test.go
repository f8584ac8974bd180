package cluster

import (
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"

	"optanestudy/internal/deepcopy"
	"optanestudy/internal/harness"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
)

// forkSpec is a short cluster point over the given params.
func forkSpec(params map[string]string, offered string, seed uint64) harness.Spec {
	ps := maps.Clone(params)
	ps["offered"] = offered
	return harness.Spec{
		Scenario: "cluster/point", Params: ps,
		Threads: 2, Duration: 60 * sim.Microsecond, Seed: seed,
	}
}

// diffTrials names what differs between two trials of one point.
func diffTrials(got, want harness.Trial) string {
	if reflect.DeepEqual(got, want) {
		return ""
	}
	for k, w := range want.Metrics {
		if g, ok := got.Metrics[k]; !ok || g != w {
			return fmt.Sprintf("metric %s = %v, want %v", k, g, w)
		}
	}
	return fmt.Sprintf("ops %d/%d, sim %v/%v, p99 %v/%v", got.Ops, want.Ops, got.Sim, want.Sim,
		got.Latency.Percentile(0.99), want.Latency.Percentile(0.99))
}

// TestForkEqualsBuild checks that a point run on a fork of a batch's
// snapshot — after a sibling point already ran on another fork of it —
// reports exactly what the point reports on a freshly built cluster, for
// each backend × DRAM tier × placement × replication.
func TestForkEqualsBuild(t *testing.T) {
	for _, backend := range []string{"pmemkv", "lsmkv"} {
		for _, tier := range []string{"none", "hot"} {
			for _, policy := range []string{PolicyLocalPacked, PolicyNUMABlind} {
				for _, replicate := range []bool{false, true} {
					if tier == "hot" && replicate {
						continue // replication does not compose with a tier
					}
					name := fmt.Sprintf("%s/%s/%s/replicate=%v", backend, tier, policy, replicate)
					params := map[string]string{
						"backend": backend, "policy": policy, "shards": "2",
						"get": "0.5", "put": "0.5", "scan": "0",
					}
					if tier == "hot" {
						params["cache"] = "65536"
						params["llckb"], params["evict"] = "16", "random"
						params["get"], params["put"] = "0.9", "0.1"
					}
					if replicate {
						params["putlog"], params["replicate"] = "1", "1"
						params["fault"], params["faultat"] = "crash", "0.5"
					}
					t.Run(name, func(t *testing.T) {
						snaps := &harness.Snapshots{}
						sibling := forkSpec(params, "16000", 99)
						sibling.Snapshots = snaps
						if _, err := runClusterPoint(sibling); err != nil {
							t.Fatal(err)
						}
						spec := forkSpec(params, "8000", 7)
						spec.Snapshots = snaps
						got, err := runClusterPoint(spec)
						if err != nil {
							t.Fatal(err)
						}
						want, err := clusterPoint(spec, func(b build) (built, error) { return b.build() })
						if err != nil {
							t.Fatal(err)
						}
						if d := diffTrials(got, want); d != "" {
							t.Errorf("fork differs from a fresh build: %s", d)
						}
					})
				}
			}
		}
	}
}

// platformState is what a snapshot check compares: the durable bytes,
// the device counters and the engine clock.
type platformState struct {
	durable uint64
	now     sim.Time
	xp      [2]any
	upi     [2][2]int64
	wpq     [2][6][2]sim.Time
}

func stateOf(p *platform.Platform) platformState {
	s := platformState{durable: p.DurableDigest(), now: p.Now()}
	for sock := 0; sock < 2; sock++ {
		s.xp[sock] = p.XPCounters(sock)
		s.upi[sock][0], s.upi[sock][1] = p.UPIBytes(sock)
		for ch := 0; ch < 6; ch++ {
			s.wpq[sock][ch][0], s.wpq[sock][ch][1] = p.XPWPQStats(sock, ch)
		}
	}
	return s
}

// TestSnapshotUnchangedByForks runs forks of one snapshot in parallel,
// each writing its durable store, and checks that the snapshot's durable
// bytes, device counters and clock did not move. Run it under -race: a
// fork that wrote anything it shares with the snapshot is a data race.
func TestSnapshotUnchangedByForks(t *testing.T) {
	for _, params := range []map[string]string{
		{"putlog": "1", "replicate": "1", "fault": "crash", "get": "0.2", "put": "0.8", "scan": "0"},
		{"cache": "65536", "llckb": "16", "backend": "lsmkv", "get": "0.8", "put": "0.2", "scan": "0"},
	} {
		spec := forkSpec(params, "12000", 1)
		var b build
		if _, err := clusterPoint(spec, func(pb build) (built, error) {
			b = pb
			return pb.build()
		}); err != nil {
			t.Fatal(err)
		}
		snap, err := b.build()
		if err != nil {
			t.Fatal(err)
		}
		before := stateOf(snap.p)
		const forks = 4
		fps := make([]*platform.Platform, forks)
		var wg sync.WaitGroup
		for i := 0; i < forks; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := clusterPoint(forkSpec(params, fmt.Sprint(8000+4000*i), uint64(i)), func(build) (built, error) {
					f, err := deepcopy.Copy(snap)
					fps[i] = f.p
					return f, err
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if after := stateOf(snap.p); !reflect.DeepEqual(after, before) {
			t.Errorf("%v: snapshot changed under its forks:\n before %+v\n after  %+v", params, before, after)
		}
		if fresh, err := b.build(); err != nil || !reflect.DeepEqual(stateOf(fresh.p), before) {
			t.Errorf("%v: snapshot differs from a fresh build (err %v)", params, err)
		}
		// Each fork wrote pages of its own and still shares the rest.
		for i, fp := range fps {
			if resident, shared := fp.DurablePages(); shared == 0 || shared == resident {
				t.Errorf("%v: fork %d shares %d of %d pages; want some but not all", params, i, shared, resident)
			}
		}
	}
}
