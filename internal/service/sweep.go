package service

import (
	"fmt"
	"maps"
	"math"
	"strconv"
	"strings"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
	"optanestudy/internal/telemetry"
)

// SweepConfig bounds one load sweep: the point scenario to drive, the
// offered-load grid, and the knobs shared by every point. Each point is
// one harness trial of the point scenario, so sweeps and single-point CLI
// runs can never disagree on how a load level is measured, and the points
// fan out across Parallel workers with seeds derived from each point's
// resolved spec — the curve is identical at any pool width.
type SweepConfig struct {
	// Scenario is the point scenario the sweep drives: "service/kv/<backend>"
	// for single-node sweeps, "cluster/point" for the sharded fabric.
	Scenario string
	// Params are extra point-scenario params (media, arrival, mix, ...).
	Params map[string]string
	// Threads is the worker-pool size at every point.
	Threads int
	// Duration and Warmup are the per-point measured window and warmup.
	Duration sim.Time
	Warmup   sim.Time
	Seed     uint64
	// MinKops to MaxKops in Points linear steps is the offered-load grid
	// (thousands of ops per simulated second).
	MinKops, MaxKops float64
	Points           int
	// Parallel is the worker-pool width the sweep's trials fan out over
	// (0 = GOMAXPROCS).
	Parallel int
	// Trace asks every point trial to record phase spans and a timeline;
	// each Point then carries its trial's Trace. Non-identity, like
	// Parallel: point seeds and results are unchanged.
	Trace bool
}

// Point is one load level's outcome.
type Point struct {
	// OfferedKops is the requested load (the grid coordinate); GenKops is
	// what the arrival process actually generated over the window.
	OfferedKops float64
	GenKops     float64
	// AchievedKops is the completed-request rate.
	AchievedKops float64
	// DropFrac is the shed fraction of offered requests.
	DropFrac float64
	// P50/P95/P99/P999 are end-to-end latency percentiles in ns.
	P50, P95, P99, P999 float64
	// Util is the worker pool's busy fraction.
	Util float64
	// Metrics is the point trial's full metric map (per-tenant shed
	// counts, per-shard breakdowns, ...) for callers that aggregate more
	// than the curve fields.
	Metrics map[string]float64
	// Trace is the point trial's recording, present only on traced sweeps
	// (SweepConfig.Trace).
	Trace *telemetry.Trace
}

// Curve is a throughput-latency curve, in ascending offered-load order.
type Curve []Point

// RunSweep measures the curve.
func RunSweep(sc SweepConfig) (Curve, error) {
	if sc.Scenario == "" {
		return nil, fmt.Errorf("service: sweep has no point scenario")
	}
	if !(sc.MinKops > 0 && sc.MaxKops >= sc.MinKops && !math.IsInf(sc.MaxKops, 1)) || sc.Points < 2 {
		return nil, fmt.Errorf("service: bad sweep grid: %d points over [%g, %g] kops", sc.Points, sc.MinKops, sc.MaxKops)
	}
	grid := make([]float64, sc.Points)
	step := (sc.MaxKops - sc.MinKops) / float64(sc.Points-1)
	for i := range grid {
		grid[i] = sc.MinKops + float64(i)*step
	}
	specs := make([]harness.Spec, len(grid))
	for i, kops := range grid {
		params := maps.Clone(sc.Params)
		if params == nil {
			params = make(map[string]string, 1)
		}
		params["offered"] = strconv.FormatFloat(kops, 'g', -1, 64)
		specs[i] = harness.Spec{
			Scenario: sc.Scenario,
			Params:   params,
			Threads:  sc.Threads,
			Duration: sc.Duration,
			Warmup:   sc.Warmup,
			Seed:     sc.Seed,
			Trace:    sc.Trace,
		}
	}
	curve := make(Curve, len(grid))
	for i, sr := range harness.RunSpecs(specs, sc.Parallel) {
		if sr.Err != nil {
			return nil, sr.Err
		}
		m := sr.Result.Trials[0].Metrics
		curve[i] = Point{
			OfferedKops:  grid[i],
			GenKops:      m["offered_kops"],
			AchievedKops: m["achieved_kops"],
			DropFrac:     m["drop_frac"],
			P50:          m["p50_ns"],
			P95:          m["p95_ns"],
			P99:          m["p99_ns"],
			P999:         m["p999_ns"],
			Util:         m["util"],
			Metrics:      m,
			Trace:        sr.Result.Trials[0].Trace,
		}
	}
	return curve, nil
}

// EmitCurve folds one measured curve into a trial, every key under the
// leg's suffix (empty on a one-leg sweep), counting one op per point: the
// knee and saturation summary, per-point achieved/p99, and the readouts a
// leg's points carry only when their feature is on — fences per op and
// tier hit rate at the deepest point (where batches fill and the tier is
// warmest), per-point failover outcomes, and the deepest point's shed
// counts (who gets dropped at the top of the grid).
func EmitCurve(tr *harness.Trial, c Curve, suffix string) {
	knee := c.KneeIndex()
	tr.Metrics["knee_kops"+suffix] = c[knee].OfferedKops
	tr.Metrics["sat_kops"+suffix] = c.SaturationKops()
	tr.Metrics["p50_knee_ns"+suffix] = c[knee].P50
	tr.Metrics["p99_knee_ns"+suffix] = c[knee].P99
	tr.Metrics["p99_max_ns"+suffix] = c[len(c)-1].P99
	for _, pt := range c {
		tr.Metrics[fmt.Sprintf("achieved@%g%s", pt.OfferedKops, suffix)] = pt.AchievedKops
		tr.Metrics[fmt.Sprintf("p99@%g%s", pt.OfferedKops, suffix)] = pt.P99
		for _, key := range []string{"recovery_ns", "promote_ns", "failover_p99_ns", "lost_recs"} {
			if f, ok := pt.Metrics[key]; ok {
				tr.Metrics[fmt.Sprintf("%s@%g%s", key, pt.OfferedKops, suffix)] = f
			}
		}
		tr.Ops++
	}
	deep := c[len(c)-1].Metrics
	if f, ok := deep["pmem_fence_per_op"]; ok {
		tr.Metrics["fence_per_op_deep"+suffix] = f
	}
	if f, ok := deep["cache_hit_rate"]; ok {
		tr.Metrics["cache_hit_rate_deep"+suffix] = f
	}
	for k, f := range deep {
		if strings.HasSuffix(k, "_shed_ops") {
			tr.Metrics[k+suffix] = f
		}
	}
}

// KneeIndex locates the saturation knee: the last grid point still keeping
// up with the load its arrival process actually generated (achieved ≥ 95%
// of generated — a Poisson process undershoots its nominal rate at light
// load, which must not read as saturation). Past the knee the platform
// sheds load and achieved throughput flattens while tail latency climbs.
// Returns 0 if even the first point is saturated.
func (c Curve) KneeIndex() int {
	for i, pt := range c {
		if pt.AchievedKops < 0.95*pt.GenKops {
			if i == 0 {
				return 0
			}
			return i - 1
		}
	}
	return len(c) - 1
}

// SaturationKops returns the maximum achieved throughput on the curve.
func (c Curve) SaturationKops() float64 {
	var max float64
	for _, pt := range c {
		if pt.AchievedKops > max {
			max = pt.AchievedKops
		}
	}
	return max
}

// TSV renders the curve as a figure-style table.
func (c Curve) TSV(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	b.WriteString("offered_kops\tachieved_kops\tdrop_frac\tp50_ns\tp95_ns\tp99_ns\tp999_ns\tutil\n")
	for _, pt := range c {
		fmt.Fprintf(&b, "%g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\n",
			pt.OfferedKops, pt.AchievedKops, pt.DropFrac,
			pt.P50, pt.P95, pt.P99, pt.P999, pt.Util)
	}
	return b.String()
}
