package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestSloKops(t *testing.T) {
	cases := []struct {
		name string
		pts  []sloPoint
		want float64
	}{
		{
			// Margins 0.2, 0.5, then 5 (shed 5% against the 1% limit):
			// the crossing lies 0.5/4.5 of the way from 20000 to 30000.
			name: "interpolates past the last point that meets",
			pts:  []sloPoint{{10000, 2000, 0}, {20000, 5000, 0}, {30000, 20000, 0.05}},
			want: 20000 + 0.5/4.5*10000,
		},
		{
			name: "latency alone decides",
			pts:  []sloPoint{{1000, 8000, 0}, {2000, 12000, 0}},
			want: 1000 + 0.2/0.4*1000,
		},
		{
			name: "shed alone decides",
			pts:  []sloPoint{{1000, 1000, 0.005}, {2000, 1000, 0.02}},
			want: 1000 + 0.5/1.5*1000,
		},
		{
			name: "no point meets the limit",
			pts:  []sloPoint{{1000, 11000, 0}, {2000, 50000, 0.1}},
			want: 0,
		},
		{
			name: "every point meets the limit",
			pts:  []sloPoint{{1000, 1000, 0}, {2000, 9000, 0.01}},
			want: 2000,
		},
		{
			name: "a point that meets again after a miss counts",
			pts:  []sloPoint{{1000, 1000, 0}, {2000, 20000, 0}, {3000, 5000, 0}, {4000, 15000, 0}},
			want: 3000 + 0.5/1*1000,
		},
		{name: "empty grid", want: 0},
	}
	for _, c := range cases {
		if got := sloKops(c.pts); !near(got, c.want) {
			t.Errorf("%s: sloKops = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEffectiveP99(t *testing.T) {
	quantile := func(q float64) float64 { return 1000 * q }
	cases := []struct {
		offered, completed int64
		want               float64
	}{
		{1000, 1000, 990},
		// Five refused: the offered p99 sits deeper in the completions.
		{1000, 995, 1000 * 0.99 * 1000 / 995},
		// More than 1% refused: the slowest completion stands in.
		{1000, 980, 1000},
		{1000, 0, math.Inf(1)},
	}
	for _, c := range cases {
		if got := effectiveP99(c.offered, c.completed, quantile); !near(got, c.want) && got != c.want {
			t.Errorf("effectiveP99(%d, %d) = %v, want %v", c.offered, c.completed, got, c.want)
		}
	}
}

func TestPaperErr(t *testing.T) {
	if got := paperErr([]float64{110, 90, 0.5}, []float64{100, 100, 0.25}); !near(got, (0.1+0.1+1)/3) {
		t.Errorf("paperErr = %v", got)
	}
	if got := paperErr([]float64{169}, []float64{169}); got != 0 {
		t.Errorf("exact match: paperErr = %v, want 0", got)
	}
	if got := paperErr([]float64{1}, nil); !math.IsNaN(got) {
		t.Errorf("mismatched lengths: paperErr = %v, want NaN", got)
	}
}

func TestFailFrac(t *testing.T) {
	outs := []opsOutcome{
		// A grid point past the knee: every refusal is a failure.
		{attempted: 1000, completed: 900, shed: 100},
		// The crash point: 30 of its 50 refusals fell inside the
		// failover window and are excused; 2 acked records were lost.
		{attempted: 1000, completed: 948, shed: 50, excusedShed: 30, lost: 2},
		// An errored job: all of its requests failed, whatever else
		// was recorded.
		{attempted: 500, shed: 7, errored: true},
		// A clean point.
		{attempted: 400, completed: 400},
	}
	attempted, failed, frac := failFrac(outs)
	if attempted != 2900 || failed != 100+20+2+500 {
		t.Fatalf("failFrac = %d attempted, %d failed; want 2900, 622", attempted, failed)
	}
	if !near(frac, 622.0/2900) {
		t.Errorf("frac = %v", frac)
	}
	if _, _, frac := failFrac(nil); frac != 0 {
		t.Errorf("no outcomes: frac = %v, want 0", frac)
	}
}

func TestOutcomeConsistent(t *testing.T) {
	if !(opsOutcome{attempted: 10, completed: 7, shed: 3}).consistent() {
		t.Error("completed + shed == offered must be consistent")
	}
	if (opsOutcome{attempted: 10, completed: 8, shed: 3}).consistent() {
		t.Error("completed + shed > offered must be flagged")
	}
	if !(opsOutcome{attempted: 10, errored: true}).consistent() {
		t.Error("an errored job has no counts to check")
	}
}

func TestBucket(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{
			"runtime.mapaccess2_fast64",
			"optanestudy/internal/cache.(*LLC).Present",
			"optanestudy/internal/platform.(*MemCtx).Load",
		}, "cache"},
		{[]string{"optanestudy/internal/service.Serve.func3", "runtime.goexit"}, "service"},
		{[]string{"runtime.futex", "runtime.park_m"}, "runtime"},
		{[]string{"optanestudy/internal/harness.RunSpecs.func1"}, "other"},
		{[]string{"optanestudy/internal/simfoo.X", "optanestudy/internal/sim.(*Proc).AdvanceTo"}, "other"},
		{[]string{"main.run", "optanestudy/internal/sim.(*Engine).Run"}, "sim"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := bucket(c.stack); got != c.want {
			t.Errorf("bucket(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
	shares := bucketShares(
		[][]string{{"optanestudy/internal/dimm.(*XPDIMM).WriteLine"}, {"runtime.mallocgc"}, {"optanestudy/internal/dimm.x"}},
		[]int64{3, 1, 4})
	if len(shares) != len(hostPkgs)+2 {
		t.Errorf("bucketShares has %d buckets, want %d", len(shares), len(hostPkgs)+2)
	}
	if !near(shares["dimm"], 7.0/8) || !near(shares["runtime"], 1.0/8) || shares["sim"] != 0 {
		t.Errorf("bucketShares = %v", shares)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
}
