package service

import (
	"fmt"
	"maps"
	"strconv"
	"strings"

	"optanestudy/internal/harness"
	"optanestudy/internal/telemetry"
)

// The sweep grid: every service and cluster sweep scenario is one
// offered-load grid repeated per leg of its axes, the paper's method of
// varying one factor at a time. The axes are declared once, in Axes; a
// scenario names an axis by setting its grid param, and SweepLegs expands
// the spec into legs without running anything.

// Axis is one sweep dimension. Its grid param lists the leg values; each
// leg repeats the offered-load grid with the axis's point param set to
// the leg value.
type Axis struct {
	// Grid is the sweep param listing the legs, comma-separated
	// ("batchgrid=1,8,32").
	Grid string
	// Point is the point param a leg sets to its value. Empty on the
	// threads axis, whose value is the leg's worker-pool size.
	Point string
	// Tag heads the leg value in the metric suffix ("@b8"); with several
	// legs every curve key carries one suffix part per axis.
	Tag string
	// Base is the leg value that injects nothing: its point specs — and
	// the trial seeds derived from them — equal those of a sweep without
	// the axis, so the baseline curve is the same curve, not a near-copy.
	// Empty means every leg injects.
	Base string
	// Companions map sweep params to the point params they set, on
	// injecting legs only. They are consumed only with the grid param
	// present; without it they pass through to the point scenario.
	Companions map[string]string
	// Parse checks one leg value and returns its canonical spelling.
	Parse func(string) (string, bool)
	// Want describes valid leg values in errors.
	Want string
}

// Axes is the sweep-axis table, in nesting order: the first axis is the
// outermost loop and the first part of the metric suffix.
var Axes = []Axis{
	{Grid: "threadgrid", Tag: "t", Parse: positiveInt, Want: "positive ints"},
	{Grid: "policygrid", Point: "policy", Parse: nonEmpty, Want: "policy names"},
	{
		Grid: "batchgrid", Point: "batch", Tag: "b", Base: "1",
		Companions: map[string]string{"batchlinger": "linger"},
		Parse:      positiveInt, Want: "positive ints",
	},
	{
		Grid: "cachegrid", Point: "cache", Tag: "c", Base: "0",
		Companions: map[string]string{
			"cachequota": "quota", "cacheadmit": "admit",
			"cacheevict": "evict", "cachetier": "tier",
		},
		Parse: byteSize, Want: "byte sizes >= 0",
	},
	{
		Grid: "faultgrid", Point: "fault", Tag: "f", Base: "none",
		Companions: map[string]string{
			"faultshard": "faultshard", "faultat": "faultat", "faultdur": "faultdur",
			"detect": "detect", "faultsocket": "faultsocket",
			"churnperiod": "churnperiod", "churndown": "churndown", "churnjitter": "churnjitter",
		},
		Parse: faultKind, Want: "kinds from none, crash, stall, socket, churn",
	},
}

func positiveInt(s string) (string, bool) {
	n, err := strconv.Atoi(s)
	return strconv.Itoa(n), err == nil && n >= 1
}

func byteSize(s string) (string, bool) {
	n, err := strconv.ParseInt(s, 10, 64)
	return strconv.FormatInt(n, 10), err == nil && n >= 0
}

func nonEmpty(s string) (string, bool) { return s, s != "" }

func faultKind(s string) (string, bool) {
	switch s {
	case "none", "crash", "stall", "socket", "churn":
		return s, true
	}
	return s, false
}

// legValues consumes the axis's grid param and companions from params.
// It returns nil values when the grid param is absent.
func (ax Axis) legValues(params map[string]string) (values []string, companions map[string]string, err error) {
	raw, ok := params[ax.Grid]
	if !ok {
		return nil, nil, nil
	}
	delete(params, ax.Grid)
	seen := make(map[string]bool)
	for _, s := range strings.Split(raw, ",") {
		v, ok := ax.Parse(strings.TrimSpace(s))
		if !ok {
			return nil, nil, fmt.Errorf("param %s=%q: want comma-separated %s", ax.Grid, raw, ax.Want)
		}
		if seen[v] {
			return nil, nil, fmt.Errorf("param %s=%q: leg %s appears twice", ax.Grid, raw, v)
		}
		seen[v] = true
		values = append(values, v)
	}
	companions = make(map[string]string)
	for param, key := range ax.Companions {
		if v, ok := params[param]; ok {
			delete(params, param)
			companions[key] = v
		}
	}
	return values, companions, nil
}

// Leg is one curve of a grid sweep: the sweep it runs, plus the metric
// suffix and TSV title it reports under.
type Leg struct {
	SweepConfig
	Suffix, Title string
}

// SweepLegs expands a resolved sweep spec into its legs, in Axes nesting
// order. The grid params (minkops, maxkops, points and each axis's grid
// and companions) are consumed; every other param passes through to the
// point scenario verbatim, whose reader catches typos. Malformed axes
// are errors here; a bad load range fails the first leg's RunSweep.
// Either way no point runs.
func SweepLegs(spec harness.Spec, point string) ([]Leg, error) {
	rest := maps.Clone(spec.Params)
	if rest == nil {
		rest = make(map[string]string)
	}
	minKops, maxKops, points, err := gridParams(rest)
	if err != nil {
		return nil, err
	}
	values := make([][]string, len(Axes))
	companions := make([]map[string]string, len(Axes))
	for i, ax := range Axes {
		if values[i], companions[i], err = ax.legValues(rest); err != nil {
			return nil, err
		}
	}
	legs := []Leg{{SweepConfig: SweepConfig{
		Scenario: point, Params: rest, Threads: spec.Threads,
		Duration: spec.Duration, Warmup: spec.Warmup, Seed: spec.Seed,
		MinKops: minKops, MaxKops: maxKops, Points: points,
		Parallel: spec.Parallel, Trace: spec.Trace,
	}}}
	for i, ax := range Axes {
		if values[i] == nil {
			continue
		}
		multi := len(values[i]) > 1
		next := make([]Leg, 0, len(legs)*len(values[i]))
		for _, leg := range legs {
			for _, v := range values[i] {
				next = append(next, ax.apply(leg, v, companions[i], multi))
			}
		}
		legs = next
	}
	for i := range legs {
		legs[i].Title = fmt.Sprintf("%s sweep: %d threads%s", point, legs[i].Threads, legs[i].Title)
	}
	return legs, nil
}

// apply derives the leg for one axis value from its parent leg, copying
// the param map only when the value injects. With multi set (the axis has
// several legs) the value joins the leg's suffix and title.
func (ax Axis) apply(leg Leg, v string, companions map[string]string, multi bool) Leg {
	if multi {
		leg.Suffix += "@" + ax.Tag + v
		if ax.Point != "" {
			leg.Title += ", " + ax.Point + " " + v
		}
	}
	switch {
	case ax.Point == "":
		leg.Threads, _ = strconv.Atoi(v) // v passed positiveInt
	case v != ax.Base:
		params := maps.Clone(leg.Params)
		params[ax.Point] = v
		maps.Copy(params, companions)
		// Faults that fail over need a standby to promote.
		if ax.Point == "fault" && v != "stall" {
			params["replicate"] = "1"
		}
		leg.Params = params
	}
	return leg
}

// gridParams consumes the offered-load grid params from params: minkops
// to maxkops (kops) in points linear steps. All three are required;
// RunSweep checks their range.
func gridParams(params map[string]string) (minKops, maxKops float64, points int, err error) {
	var v [3]string
	for i, key := range []string{"minkops", "maxkops", "points"} {
		s, ok := params[key]
		if !ok {
			return 0, 0, 0, fmt.Errorf("param %s: required by sweep scenarios", key)
		}
		delete(params, key)
		v[i] = s
	}
	if minKops, err = strconv.ParseFloat(v[0], 64); err != nil {
		return 0, 0, 0, fmt.Errorf("param minkops=%q: not a valid float", v[0])
	}
	if maxKops, err = strconv.ParseFloat(v[1], 64); err != nil {
		return 0, 0, 0, fmt.Errorf("param maxkops=%q: not a valid float", v[1])
	}
	if points, err = strconv.Atoi(v[2]); err != nil {
		return 0, 0, 0, fmt.Errorf("param points=%q: not a valid integer", v[2])
	}
	return minKops, maxKops, points, nil
}

// RunGridSweep runs a sweep scenario: it expands spec into legs, measures
// each leg's curve on the point scenario, and folds the curves into one
// trial — metrics under each leg's suffix, one TSV table per leg, and on
// traced sweeps one merged trace.
func RunGridSweep(spec harness.Spec, point string) (harness.Trial, error) {
	legs, err := SweepLegs(spec, point)
	if err != nil {
		return harness.Trial{}, err
	}
	tr := harness.Trial{Metrics: make(map[string]float64)}
	var text strings.Builder
	for _, leg := range legs {
		curve, err := RunSweep(leg.SweepConfig)
		if err != nil {
			return harness.Trial{}, err
		}
		tr.Trace = MergeCurveTrace(tr.Trace, curve, leg.Suffix)
		EmitCurve(&tr, curve, leg.Suffix)
		text.WriteString(curve.TSV(leg.Title))
		text.WriteByte('\n')
	}
	tr.Text = strings.TrimRight(text.String(), "\n")
	return tr, nil
}

// MergeCurveTrace folds a traced curve's per-point recordings into one
// trial-level trace, relabelling each run with its grid coordinate (and
// the sweep leg's metric suffix) so a renderer can tell the points apart.
// Returns trace unchanged on untraced sweeps.
func MergeCurveTrace(trace *telemetry.Trace, curve Curve, suffix string) *telemetry.Trace {
	for _, pt := range curve {
		if pt.Trace == nil {
			continue
		}
		if trace == nil {
			trace = &telemetry.Trace{}
		}
		for _, rn := range pt.Trace.Runs {
			rn.Label = fmt.Sprintf("offered=%g%s", pt.OfferedKops, suffix)
			trace.Runs = append(trace.Runs, rn)
		}
	}
	return trace
}
