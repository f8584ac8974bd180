// Command perfbench is the repository's benchmark. It runs one named
// workload of simulator scenarios through the public harness.RunSpecs
// API, checks the simulated outputs, and prints every metric by name with
// its unit; the last line of its output is one JSON object:
//
//	perfbench --workload serve-write --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (host time to answer,
// set-up time, host cost per simulated operation, memory) and, on lines of
// their own, the simulated service and fidelity results. With --trace 1
// it runs the same specs traced and untraced and reports per-layer
// metrics: simulated phase and device figures, a CPU-profile split of
// host time by package, and isolated layer-call timings. README.md in
// this directory documents the workloads, metrics and seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"optanestudy/internal/harness"
	_ "optanestudy/internal/scenarios"
)

// defaultSeed is the seed the benchmark runs with when none is given;
// heldOutSeed is kept for checking that a claimed gain also holds on a
// seed not used while the change was written.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// A run sets up at least setupPasses times, and for up to setupBudget, and
// reports the median.
const (
	setupPasses = 7
	setupBudget = 2 * time.Second
)

// layerReps is how many times each isolated layer timing repeats.
const layerReps = 5

type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_ops_per_wall_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports, on every workload; a
// layer the workload does not use reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"service.queue_wait_p99_ns", "ns"},
		{"service.batch_wait_p99_ns", "ns"},
		{"service.service_p99_ns", "ns"},
		{"service.persist_p99_ns", "ns"},
		{"service.util", "frac"},
		{"cluster.max_shard_share", "frac"},
		{"pmem.fence_per_op", "1/op"},
		{"pmem.batch_fill", "ops/batch"},
		{"replica.ship_bytes_per_op", "B/op"},
		{"replica.replay_recs", "count"},
		{"dimm.ewr", "ratio"},
		{"dimm.buffer_hit_rate", "frac"},
		{"dimm.media_write_bytes_per_op", "B/op"},
		{"dimm.ctrl_read_bytes_per_op", "B/op"},
		{"imc.wpq_stall_frac", "frac"},
		{"hottier.hit_rate", "frac"},
	}
	for _, p := range append(append([]string(nil), hostPkgs...), "other", "runtime") {
		defs = append(defs, metricDef{"host." + p + "_frac", "frac"})
	}
	defs = append(defs,
		metricDef{"harness.pool_util", "frac"},
		metricDef{"harness.job_wall_max_s", "s"},
		metricDef{"trace.overhead_frac", "frac"},
	)
	for _, lt := range layerTimings {
		defs = append(defs, metricDef{lt.name, "ns"})
	}
	return defs
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-write, serve-read or paper-figures")
	seed := fs.Uint64("seed", defaultSeed, "seed of every spec (0 selects each scenario's registered seed)")
	seconds := fs.Int("seconds", 20, "measuring budget in host seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(width)
	budget := time.Duration(*seconds) * time.Second
	var out *output
	if *trace == 0 {
		out, err = measureEndToEnd(w, *seed, budget)
	} else {
		out, err = measureLayers(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := out.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// output is one run's report.
type output struct {
	defs    []metricDef
	metrics map[string]float64
	// info holds results printed for reading but not part of the JSON
	// line: the simulated service and fidelity figures.
	info      []infoLine
	attempted int64
	failed    int64
	problems  []string
}

type infoLine struct {
	name  string
	value float64
	unit  string
}

func (o *output) print(w io.Writer) error {
	if err := finite(o.metrics); err != nil {
		return err
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(o.defs))
	for _, d := range o.defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		ms[d.name] = jsonMetric{v, d.unit}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, l := range o.info {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", l.name, l.value, l.unit)
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(o.problems) == 0 && o.failed == 0, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// evaluation is what a pass's simulated results say, independent of host
// timing.
type evaluation struct {
	outcomes []opsOutcome // one per spec
	// ops is the simulated work: completed requests on a serving workload,
	// datapoints on paper-figures.
	ops  int64
	info []infoLine
}

// evaluate reads one pass's simulated results and records the checks
// they fail in ck.
func evaluate(w workload, seed uint64, specs []harness.Spec, res []harness.SpecResult, ck *checks) evaluation {
	var ev evaluation
	if w.serving != nil {
		ev = evalServing(w.serving, specs, res)
	} else {
		ev = evalFigures(refPoints(seed), specs, res)
	}
	for i, o := range ev.outcomes {
		if !o.consistent() {
			ck.fail(i, "%s: %d completed + %d refused exceed %d offered",
				specLabel(specs[i]), o.completed, o.shed, o.attempted)
		}
		if o.lost > 0 {
			ck.fail(i, "%s: %d acknowledged records lost", specLabel(specs[i]), o.lost)
		}
	}
	_, _, frac := failFrac(ev.outcomes)
	ev.info = append(ev.info, infoLine{"fail_frac", frac, "frac"})
	return ev
}

// evalServing derives the serving metrics: the capacity under the latency
// limit, latency at the reference rate, recovery time and request
// accounting.
func evalServing(d *servingDef, specs []harness.Spec, res []harness.SpecResult) evaluation {
	var ev evaluation
	var pts []sloPoint
	var ref *harness.Trial
	recovery := math.NaN()
	for i, sr := range res {
		spec := specs[i]
		kops, _ := strconv.ParseFloat(spec.Params["offered"], 64)
		if sr.Err != nil {
			ev.outcomes = append(ev.outcomes, opsOutcome{
				attempted: int64(math.Round(kops * 1e3 * spec.Duration.Seconds())),
				errored:   true,
			})
			continue
		}
		tr := &sr.Result.Trials[0]
		m := tr.Metrics
		offered := int64(math.Round(m["offered_kops"] * 1e3 * tr.Sim.Seconds()))
		ev.outcomes = append(ev.outcomes, opsOutcome{
			attempted:   offered,
			completed:   tr.Ops,
			shed:        int64(math.Round(m["drop_frac"] * float64(offered))),
			excusedShed: int64(m["failover_shed_ops"]),
			lost:        int64(m["lost_recs"]),
		})
		ev.ops += tr.Ops
		if _, crash := spec.Params["fault"]; crash {
			recovery = m["recovery_ns"] / 1e3
			continue
		}
		pts = append(pts, sloPoint{
			kops:     kops,
			p99NS:    effectiveP99(offered, tr.Ops, tr.Latency.Percentile),
			shedFrac: m["drop_frac"],
		})
		if kops == d.ref {
			ref = tr
		}
	}
	ev.info = append(ev.info, infoLine{"slo_kops", sloKops(pts), "kops"})
	if ref != nil {
		ev.info = append(ev.info,
			infoLine{"p50_us", ref.Metrics["p50_ns"] / 1e3, "us"},
			infoLine{"p99_us", ref.Metrics["p99_ns"] / 1e3, "us"},
			infoLine{"latency_samples", float64(ref.Latency.Count()), "count"},
		)
	}
	if d.crash {
		ev.info = append(ev.info, infoLine{"recovery_us", recovery, "us"})
	}
	return ev
}

// evalFigures derives the fidelity metric and the datapoint accounting of
// paper-figures: every figure's datapoints, then one per reference point
// (rps, which end the spec list).
func evalFigures(rps []refPoint, specs []harness.Spec, res []harness.SpecResult) evaluation {
	var ev evaluation
	nfig := len(specs) - len(rps)
	var simulated, paper []float64
	for i, sr := range res {
		points := int64(1)
		if sr.Err == nil && i < nfig {
			points = sr.Result.Trials[0].Ops
		}
		ev.outcomes = append(ev.outcomes, opsOutcome{attempted: points, completed: points, errored: sr.Err != nil})
		if sr.Err != nil {
			continue
		}
		ev.ops += points
		if i >= nfig {
			rp := rps[i-nfig]
			v := rp.read(sr.Result)
			simulated, paper = append(simulated, v), append(paper, rp.paper)
			ev.info = append(ev.info, infoLine{"ref." + rp.name, v, fmt.Sprintf("%s (paper %g)", rp.unit, rp.paper)})
		}
	}
	ev.info = append(ev.info, infoLine{"paper_err", paperErr(simulated, paper), "frac"})
	return ev
}

// accounting fills the run's attempted and failed counts: operations of
// specs that failed a check count as failed, and a job error fails the
// whole run.
func (o *output) accounting(ev evaluation, ck *checks) {
	o.problems = ck.problems
	for i, oc := range ev.outcomes {
		o.attempted += oc.attempted
		if ck.errored || ck.failedSpecs[i] {
			o.failed += oc.attempted
		}
	}
}

// measureEndToEnd is the --trace 0 run: set-up passes, then passes of the
// workload's specs until the budget is used.
func measureEndToEnd(w workload, seed uint64, budget time.Duration) (*output, error) {
	specs, err := w.specs(seed)
	if err != nil {
		return nil, err
	}
	var ck checks
	setupSpecs := w.setupSpecs(seed)
	setupRuns, err := repeat(setupBudget, setupPasses, func(int) (pass, error) { return runPass(setupSpecs, false) })
	if err != nil {
		return nil, err
	}
	var setup []float64
	for _, p := range setupRuns {
		for s, sr := range p.res {
			if sr.Err != nil {
				ck.errored = true
				ck.fail(-1, "set-up %s: %v", specLabel(setupSpecs[s]), sr.Err)
			}
		}
		setup = append(setup, p.wall.Seconds())
	}
	passes, err := repeat(budget, 2, func(int) (pass, error) { return runPass(specs, false) })
	if err != nil {
		return nil, err
	}
	ck.compare(specs, passes, func(i int) string { return fmt.Sprintf("pass %d", i) })
	ev := evaluate(w, seed, specs, passes[0].res, &ck)

	var walls, allocs, rss []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/(1<<20))
		rss = append(rss, float64(p.peakRSS)/(1<<20))
	}
	wall := median(walls)
	out := &output{
		defs: endToEnd,
		metrics: map[string]float64{
			"wall_s":             wall,
			"setup_s":            median(setup),
			"sim_ops_per_wall_s": float64(ev.ops) / wall,
			"alloc_mb":           median(allocs),
			"peak_rss_mb":        median(rss),
		},
		info: append(ev.info, infoLine{"passes", float64(len(passes)), "count"}),
	}
	out.accounting(ev, &ck)
	return out, nil
}

// measureLayers is the --trace 1 run: untraced and traced passes of the
// workload's specs alternate until the budget is used, a CPU profile
// covers the traced passes, and the isolated layer timings follow.
func measureLayers(w workload, seed uint64, budget time.Duration) (*output, error) {
	specs, err := w.specs(seed)
	if err != nil {
		return nil, err
	}
	traced := withTrace(specs)
	passes, err := repeat(budget, 2, func(i int) (pass, error) {
		if i%2 == 0 {
			return runPass(specs, false)
		}
		return runPass(traced, true)
	})
	if err != nil {
		return nil, err
	}
	var ck checks
	ck.compare(specs, passes, func(i int) string {
		if i%2 == 0 {
			return fmt.Sprintf("untraced pass %d", i/2)
		}
		return fmt.Sprintf("traced pass %d", i/2)
	})
	ev := evaluate(w, seed, specs, passes[0].res, &ck)

	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	if w.serving != nil && !ck.errored {
		servingLayers(w.serving, specs, passes[1].res, m)
	}

	var stacks [][]string
	var weights []int64
	var plain, tracedWalls, poolUtil, jobMax []float64
	for i, p := range passes {
		if i%2 == 1 {
			tracedWalls = append(tracedWalls, p.wall.Seconds())
			st, wt, err := profileStacks(p.profile)
			if err != nil {
				return nil, err
			}
			stacks, weights = append(stacks, st...), append(weights, wt...)
			continue
		}
		plain = append(plain, p.wall.Seconds())
		var busy, longest float64
		for _, sr := range p.res {
			if sr.Err != nil {
				continue
			}
			for _, tr := range sr.Result.Trials {
				busy += tr.Wall.Seconds()
				longest = math.Max(longest, tr.Wall.Seconds())
			}
		}
		poolUtil = append(poolUtil, busy/(width*p.wall.Seconds()))
		jobMax = append(jobMax, longest)
	}
	for pkg, share := range bucketShares(stacks, weights) {
		m["host."+pkg+"_frac"] = share
	}
	m["harness.pool_util"] = median(poolUtil)
	m["harness.job_wall_max_s"] = median(jobMax)
	m["trace.overhead_frac"] = median(tracedWalls)/median(plain) - 1

	timings, err := timeLayers(layerReps)
	if err != nil {
		return nil, err
	}
	for k, v := range timings {
		m[k] = v
	}
	out := &output{
		defs:    perLayer,
		metrics: m,
		info: append(ev.info,
			infoLine{"passes", float64(len(passes)), "count"},
			infoLine{"profile_samples", float64(sum(weights)), "count"}),
	}
	out.accounting(ev, &ck)
	return out, nil
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// servingLayers fills the simulated per-layer metrics of a serving
// workload from a traced pass: phase percentiles, pool and placement
// figures, group-commit and replication counters at the reference rate,
// device counters differenced over the reference point's timeline, and
// the crash point's replay.
func servingLayers(d *servingDef, specs []harness.Spec, res []harness.SpecResult, m map[string]float64) {
	for i, sr := range res {
		spec := specs[i]
		tr := &sr.Result.Trials[0]
		pm := tr.Metrics
		if _, crash := spec.Params["fault"]; crash {
			m["replica.replay_recs"] = pm["replay_recs"]
			continue
		}
		if spec.Params["offered"] != strconv.FormatFloat(d.ref, 'f', -1, 64) {
			continue
		}
		for _, ph := range []string{"queue_wait", "batch_wait", "service", "persist"} {
			m["service."+ph+"_p99_ns"] = pm["phase_"+ph+"_p99_ns"]
		}
		m["service.util"] = pm["util"]
		m["cluster.max_shard_share"] = pm["max_shard_share"]
		m["pmem.fence_per_op"] = pm["pmem_fence_per_op"]
		m["pmem.batch_fill"] = ratio(pm["pmem_batch_ops"], pm["pmem_batches"])
		m["replica.ship_bytes_per_op"] = ratio(pm["ship_bytes"], float64(tr.Ops))
		m["hottier.hit_rate"] = pm["cache_hit_rate"]
		if tr.Trace == nil || len(tr.Trace.Runs) == 0 || len(tr.Trace.Runs[0].Samples) < 2 {
			continue
		}
		samples := tr.Trace.Runs[0].Samples
		first, last := samples[0], samples[len(samples)-1]
		delta := func(name string) float64 { return gauge(last, name) - gauge(first, name) }
		var ctrlR, ctrlW, media, hits, misses, stall float64
		for _, g := range last.Gauges {
			sfx, ok := strings.CutPrefix(g.Name, "xp_ctrl_read_bytes_")
			if !ok {
				continue
			}
			r, wr := delta(g.Name), delta("xp_ctrl_write_bytes_"+sfx)
			if r+wr == 0 {
				continue // an idle DIMM
			}
			ctrlR += r
			ctrlW += wr
			media += delta("xp_media_write_bytes_" + sfx)
			hits += delta("xp_buffer_hits_" + sfx)
			misses += delta("xp_buffer_misses_" + sfx)
			stall += delta("xp_wpq_stall_ns_" + sfx)
		}
		ops := float64(last.Completed - first.Completed)
		m["dimm.ewr"] = ratio(ctrlW, media)
		m["dimm.buffer_hit_rate"] = ratio(hits, hits+misses)
		m["dimm.media_write_bytes_per_op"] = ratio(media, ops)
		m["dimm.ctrl_read_bytes_per_op"] = ratio(ctrlR, ops)
		m["imc.wpq_stall_frac"] = ratio(stall, float64(last.TNS-first.TNS))
	}
}
