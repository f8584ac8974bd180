package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
)

// The shape tests pin the qualitative serving claims the subsystem exists
// to demonstrate, in the style of the figure tests: the registered sweep
// presets must show an achieved-throughput curve that rises monotonically,
// flattens at saturation while tail latency blows up past the knee, and
// saturates earlier when more threads contend for one DIMM than the
// paper's recommended limit.

func defaultSweep(t *testing.T) Curve {
	t.Helper()
	// Mirrors the service/kv/sweep-pmemkv preset.
	curve, err := RunSweep(SweepConfig{
		Scenario: "service/kv/pmemkv", Threads: 8,
		Duration: 300 * sim.Microsecond, Seed: 33,
		MinKops: 2000, MaxKops: 44000, Points: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return curve
}

func TestSweepCurveShape(t *testing.T) {
	curve := defaultSweep(t)
	if len(curve) != 7 {
		t.Fatalf("curve has %d points, want 7", len(curve))
	}
	knee := curve.KneeIndex()
	if knee <= 0 || knee >= len(curve)-1 {
		t.Fatalf("knee at %d: the grid must straddle saturation", knee)
	}

	// Achieved throughput is monotone non-decreasing (within noise) and
	// flattens at saturation: the last step of offered load buys almost no
	// throughput, while the grid pushes well past the saturation point.
	for i := 1; i < len(curve); i++ {
		if curve[i].AchievedKops < 0.97*curve[i-1].AchievedKops {
			t.Errorf("achieved throughput dips at point %d: %.0f after %.0f",
				i, curve[i].AchievedKops, curve[i-1].AchievedKops)
		}
	}
	last, prev := curve[len(curve)-1], curve[len(curve)-2]
	if last.AchievedKops > 1.1*prev.AchievedKops {
		t.Errorf("curve still climbing at the top of the grid: %.0f vs %.0f",
			last.AchievedKops, prev.AchievedKops)
	}
	if sat := curve.SaturationKops(); last.OfferedKops < 1.4*sat {
		t.Errorf("grid tops out at %.0f, not deep past saturation %.0f",
			last.OfferedKops, sat)
	}

	// Tail latency blows up past the knee: p50 and p99 at deep overload
	// dwarf their values at the last clearly-unsaturated point (worker
	// pool under 60% busy).
	light := 0
	for i, pt := range curve {
		if pt.Util <= 0.6 {
			light = i
		}
	}
	if light == 0 || light >= len(curve)-1 {
		t.Fatalf("grid lacks a light-load/overload split (light=%d)", light)
	}
	if last.P99 < 3*curve[light].P99 {
		t.Errorf("p99 blow-up too small: %.0f vs light-load %.0f", last.P99, curve[light].P99)
	}
	if last.P50 < 10*curve[0].P50 {
		t.Errorf("p50 blow-up too small: %.0f vs light-load %.0f", last.P50, curve[0].P50)
	}
	// The p99 climb is superlinear in offered load: its steepest step sits
	// at the saturation crossing, not in the flat light-load region.
	maxJump, maxAt := 0.0, 0
	for i := 1; i < len(curve); i++ {
		if jump := curve[i].P99 / curve[i-1].P99; jump > maxJump {
			maxJump, maxAt = jump, i
		}
	}
	if maxJump < 1.4 || maxAt <= light || maxAt > knee+1 {
		t.Errorf("steepest p99 step (%.2fx at point %d) should sit at the knee crossing (light=%d, knee=%d)",
			maxJump, maxAt, light, knee)
	}

	// Load shedding appears only as the pool saturates, and deep overload
	// sheds hard with the workers pinned busy.
	for i := 0; i <= light; i++ {
		if curve[i].DropFrac != 0 {
			t.Errorf("light-load point %d sheds %.3f of load", i, curve[i].DropFrac)
		}
	}
	if last.DropFrac < 0.1 {
		t.Errorf("deep overload sheds only %.3f", last.DropFrac)
	}
	if last.Util < 0.9 {
		t.Errorf("workers only %.2f busy at deep overload", last.Util)
	}
}

func TestContentionShape(t *testing.T) {
	// Mirrors the service/kv/sweep-contention preset: per-worker 128 B
	// append-log streams onto a single DIMM.
	params := map[string]string{
		"backend": "pmemkv", "media": "optane-ni",
		"putlog": "1", "keysize": "8", "valsize": "112",
		"get": "0.3", "put": "0.7", "scan": "0",
	}
	run := func(threads int) Curve {
		curve, err := RunSweep(SweepConfig{
			Scenario: "service/kv/pmemkv", Params: params, Threads: threads,
			Duration: 300 * sim.Microsecond, Seed: 35,
			MinKops: 3000, MaxKops: 21000, Points: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return curve
	}
	within := run(4) // at the paper's recommended threads-per-DIMM limit
	over := run(16)  // far past it

	// Saturation arrives earlier — at a lower offered load and a lower
	// ceiling — with 16 threads on the DIMM than with 4.
	if wk, ok := within.KneeIndex(), over.KneeIndex(); within[wk].OfferedKops <= over[ok].OfferedKops {
		t.Errorf("knee with 4 workers (%.0f kops) should exceed knee with 16 (%.0f kops)",
			within[wk].OfferedKops, over[ok].OfferedKops)
	}
	satW, satO := within.SaturationKops(), over.SaturationKops()
	if satW < 1.15*satO {
		t.Errorf("saturation with 4 workers (%.0f) should clearly exceed 16 workers (%.0f)",
			satW, satO)
	}
	// At a load the 4-worker pool still keeps up with, the oversubscribed
	// pool has already collapsed into queueing.
	mid := within.KneeIndex()
	if over[mid].P99 < 5*within[mid].P99 {
		t.Errorf("p99 at %.0f kops: 16 workers %.0f should dwarf 4 workers %.0f",
			within[mid].OfferedKops, over[mid].P99, within[mid].P99)
	}
}

// TestBatchSweepShape pins the group-commit claims the batch sweep axis
// exists to demonstrate, mirroring the service/batch/sweep preset: the
// depth-1 leg is exactly the unbatched contention curve (the base-leg
// identity), deeper legs shift the saturation knee to a higher offered
// load, the deepest grid point runs well under one fence per op, and the
// light-load p50 penalty stays within the linger bound.
func TestBatchSweepShape(t *testing.T) {
	base := map[string]string{
		"backend": "pmemkv", "media": "optane-ni",
		"putlog": "1", "keysize": "8", "valsize": "112",
		"get": "0.3", "put": "0.7", "scan": "0",
	}
	run := func(params map[string]string) Curve {
		curve, err := RunSweep(SweepConfig{
			Scenario: "service/kv/pmemkv", Params: params, Threads: 4,
			Duration: 300 * sim.Microsecond, Seed: 35,
			MinKops: 3000, MaxKops: 21000, Points: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return curve
	}
	legs, err := SweepLegs(sweepSpec(base, "batchgrid", "1,8,32", "batchlinger", "1000"), "service/kv/pmemkv")
	if err != nil {
		t.Fatal(err)
	}
	grid := []int{1, 8, 32}
	if len(legs) != 3 || legs[0].Suffix != "@b1" || legs[1].Params["linger"] != "1000" {
		t.Fatalf("batch grid expanded to %v", legs)
	}
	curves := make(map[int]Curve, len(grid))
	for i, depth := range grid {
		curves[depth] = run(legs[i].Params)
	}
	b1, b8, b32 := curves[1], curves[8], curves[32]

	// The depth-1 leg must BE the unbatched curve — same params, same
	// derived seeds, same numbers — not a near-copy with batch keys set.
	if legs := legs[0].Params; !reflect.DeepEqual(legs, base) {
		t.Fatalf("depth-1 leg params %v differ from the unbatched base %v", legs, base)
	}
	if unbatched := run(base); !reflect.DeepEqual(b1, unbatched) {
		t.Fatal("depth-1 leg curve differs from the unbatched sweep")
	}

	// Group commit moves the saturation knee right: the fence amortization
	// buys capacity, so deeper legs keep up with offered loads the
	// one-fence-per-PUT leg already sheds at.
	k1 := b1[b1.KneeIndex()].OfferedKops
	for _, depth := range []int{8, 32} {
		c := curves[depth]
		if knee := c[c.KneeIndex()].OfferedKops; knee <= k1 {
			t.Errorf("batch=%d knee at %.0f kops does not clear the unbatched knee %.0f", depth, knee, k1)
		}
		// At the deepest grid point every wakeup drains a full batch, so
		// fences per op sit far below one (1/depth in the limit).
		deep := c[len(c)-1].Metrics["pmem_fence_per_op"]
		if deep <= 0 || deep >= 0.25 {
			t.Errorf("batch=%d fences/op at the deepest point = %v, want (0, 0.25)", depth, deep)
		}
		if b1deep := b1[len(b1)-1].Metrics["pmem_fence_per_op"]; b1deep != 0 {
			t.Errorf("unbatched leg emits group-commit counters (%v)", b1deep)
		}
		// Linger bounds the light-load latency cost: a short batch commits
		// at most `linger` past its oldest request's arrival.
		if delta := c[0].P50 - b1[0].P50; delta > 1100 {
			t.Errorf("batch=%d light-load p50 penalty %.0f ns exceeds the 1000 ns linger bound", depth, delta)
		}
	}
	if sat1, sat8 := b1.SaturationKops(), b8.SaturationKops(); sat8 < 1.1*sat1 {
		t.Errorf("batch=8 saturation %.0f kops is not clearly past unbatched %.0f", sat8, sat1)
	}
	if sat8, sat32 := b8.SaturationKops(), b32.SaturationKops(); sat32 < sat8 {
		t.Errorf("batch=32 saturation %.0f kops fell below batch=8's %.0f", sat32, sat8)
	}
}

// TestServeParallelByteIdentical is the acceptance contract: servebench
// output for the sweep scenario is byte-identical between -parallel 1 and
// -parallel 8 in -deterministic mode.
func TestServeParallelByteIdentical(t *testing.T) {
	render := func(parallel string) []byte {
		var out, errOut bytes.Buffer
		code := harness.CLIMain([]string{
			"-format=json", "-deterministic", "-duration=100", "-parallel=" + parallel,
			"service/kv/sweep-pmemkv", "service/kv/pmemkv",
		}, harness.CLIOptions{Command: "test", Stdout: &out, Stderr: &errOut})
		if code != 0 {
			t.Fatalf("-parallel=%s: exit %d, stderr: %s", parallel, code, errOut.String())
		}
		return out.Bytes()
	}
	serial, parallel := render("1"), render("8")
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel run diverged from serial:\n--- -parallel=1 ---\n%s\n--- -parallel=8 ---\n%s",
			serial, parallel)
	}
	if !json.Valid(serial) {
		t.Fatal("output is not valid JSON")
	}
}
