package main

import (
	"fmt"
	"strconv"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
)

// servingDef is one serving workload: a cluster/point configuration run at
// every rate of an offered-load grid (one spec per rate, so the benchmark
// derives the curve itself instead of going through a sweep scenario),
// plus optional extra points at the reference rate.
type servingDef struct {
	threads int
	params  map[string]string
	// grid is the offered load per spec, in kops.
	grid []float64
	// ref is the reference rate the latency metrics are read at.
	ref float64
	// crash adds a point at ref with a primary crash mid-window.
	crash bool
}

// window is the measured simulated window of every serving point (the
// cluster/point default, spelled out so the spec identity never depends
// on a registry default).
const window = 300 * sim.Microsecond

// setupWindow shrinks the measured window so a serving point does only its
// set-up: platform build, preload and proc spawn.
const setupWindow = sim.Microsecond

var serveWrite = servingDef{
	threads: 4,
	params: map[string]string{
		"policy": "local-packed", "shards": "2", "putlog": "1",
		"batch": "8", "linger": "1000", "replicate": "1",
		"get": "0.3", "put": "0.7", "scan": "0",
	},
	grid:  linspace(10000, 120000, 12),
	ref:   30000,
	crash: true,
}

var serveRead = servingDef{
	threads: 8,
	params: map[string]string{
		"policy": "local-packed", "shards": "2", "tenants": "2",
		"keys": "2000", "valsize": "128", "mix": "zipf", "llckb": "16",
		"get": "0.95", "put": "0.05", "scan": "0", "cache": "524288",
	},
	grid: linspace(4000, 48000, 12),
	ref:  16000,
}

// crashParams are added to the reference-rate point to make the crash
// point of a serving workload.
var crashParams = map[string]string{
	"fault": "crash", "faultshard": "0", "faultat": "0.4", "detect": "2000",
}

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// pointSpec builds one cluster/point spec of the workload at rate kops.
func (d servingDef) pointSpec(kops float64, crash bool, seed uint64, dur sim.Time) harness.Spec {
	params := make(map[string]string, len(d.params)+len(crashParams)+1)
	for k, v := range d.params {
		params[k] = v
	}
	params["offered"] = strconv.FormatFloat(kops, 'f', -1, 64)
	if crash {
		for k, v := range crashParams {
			params[k] = v
		}
	}
	return harness.Spec{
		Scenario: "cluster/point", Params: params,
		Threads: d.threads, Duration: dur, Seed: seed,
	}
}

// specs lists the grid points in rate order, then the crash point.
func (d servingDef) specs(seed uint64, dur sim.Time) []harness.Spec {
	out := make([]harness.Spec, 0, len(d.grid)+1)
	for _, r := range d.grid {
		out = append(out, d.pointSpec(r, false, seed, dur))
	}
	if d.crash {
		out = append(out, d.pointSpec(d.ref, true, seed, dur))
	}
	return out
}

// refPoint is one paper number the simulator is calibrated against,
// together with the spec that reproduces it and how to read the
// simulated value from the spec's result.
type refPoint struct {
	name  string
	unit  string
	paper float64
	spec  harness.Spec
	read  func(*harness.Result) float64
}

// refPoints are the paper values the repository's own tests compare
// against (§3 of the paper: Figure 2's idle latencies, the single-DIMM
// read/write bandwidth asymmetry and the random-ntstore EWR).
func refPoints(seed uint64) []refPoint {
	idle := func(pattern string) harness.Spec {
		return harness.Spec{
			Scenario: "lattester/idle-latency",
			Params:   map[string]string{"op": "read", "pattern": pattern},
			Threads:  1, Ops: 3000, Seed: seed,
		}
	}
	ni := func(op, pattern string, size, threads int) harness.Spec {
		return harness.Spec{
			Scenario: "lattester/kernel",
			Params: map[string]string{
				"system": "optane-ni", "op": op, "pattern": pattern,
				"size": strconv.Itoa(size),
			},
			Threads: threads, Seed: seed,
		}
	}
	metric := func(name string) func(*harness.Result) float64 {
		return func(r *harness.Result) float64 { return r.Metrics[name].Mean }
	}
	gbs := func(r *harness.Result) float64 { return r.GBs.Mean }
	return []refPoint{
		{"idle_seq_read_ns", "ns", 169, idle("seq"), metric("mean_ns")},
		{"idle_rand_read_ns", "ns", 305, idle("rand"), metric("mean_ns")},
		{"ni_seq_read_4t_gbs", "GB/s", 6.6, ni("read", "seq", 256, 4), gbs},
		{"ni_seq_ntstore_1t_gbs", "GB/s", 2.3, ni("ntstore", "seq", 256, 1), gbs},
		{"ni_rand_ntstore_64b_ewr", "ratio", 0.25, ni("ntstore", "rand", 64, 1), metric("ewr")},
		{"ni_rand_ntstore_256b_ewr", "ratio", 0.98, ni("ntstore", "rand", 256, 1), metric("ewr")},
	}
}

// figureSpecs lists every figures/* scenario. The figure runners use the
// paper's fixed per-datapoint seeds, so the seed reaches these specs but
// does not change their results; it does change the reference points.
func figureSpecs(seed uint64) ([]harness.Spec, error) {
	scs, err := harness.Match("figures/*")
	if err != nil {
		return nil, err
	}
	out := make([]harness.Spec, len(scs))
	for i, sc := range scs {
		out[i] = harness.Spec{Scenario: sc.Name, Seed: seed}
	}
	return out, nil
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// serving is nil for paper-figures.
	serving *servingDef
}

var workloads = []workload{
	{name: "serve-write", serving: &serveWrite},
	{name: "serve-read", serving: &serveRead},
	{name: "paper-figures"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// specs returns the measured spec list: the grid and crash point of a
// serving workload, or every figure followed by the reference points.
func (w workload) specs(seed uint64) ([]harness.Spec, error) {
	if w.serving != nil {
		return w.serving.specs(seed, window), nil
	}
	out, err := figureSpecs(seed)
	if err != nil {
		return nil, err
	}
	for _, rp := range refPoints(seed) {
		out = append(out, rp.spec)
	}
	return out, nil
}

// setupSpecs returns the specs whose host time is the workload's set-up.
// Serving points keep their full set-up but measure a 1 µs window. A
// figure's per-datapoint set-up cannot be separated from outside, so
// paper-figures times the platform build every datapoint pays, through
// the reference-point specs cut to a 1 µs window or a single op.
func (w workload) setupSpecs(seed uint64) []harness.Spec {
	if w.serving != nil {
		return w.serving.specs(seed, setupWindow)
	}
	rps := refPoints(seed)
	out := make([]harness.Spec, len(rps))
	for i, rp := range rps {
		s := rp.spec
		if s.Ops > 0 {
			s.Ops = 1
		} else {
			s.Duration = setupWindow
		}
		out[i] = s
	}
	return out
}
