package main

import (
	"math"
	"sort"
	"strings"
)

// The derivations in this file are pure functions over already-measured
// numbers, so derive_test.go checks them on synthetic inputs without
// running a simulation.

// The serving latency limit: a request meets it when it completes within
// sloP99NS; a grid point meets it when at least 99% of its offered
// requests do and at most sloShed of them were refused.
const (
	sloP99NS = 10000
	sloShed  = 0.01
)

// sloPoint is one grid point as the capacity metric sees it.
type sloPoint struct {
	kops float64 // offered rate
	// p99NS is the 99th percentile over all offered requests, counting
	// refused ones as misses (see effectiveP99).
	p99NS    float64
	shedFrac float64
}

// margin is how far the point is from the limit: at most 1 when it meets
// both conditions, above 1 otherwise.
func (p sloPoint) margin() float64 {
	return math.Max(p.p99NS/sloP99NS, p.shedFrac/sloShed)
}

// sloKops returns the highest offered rate that meets the latency limit.
// It takes the last grid point that meets the limit and interpolates the
// margin linearly towards the next point, which does not. It returns 0 when
// no point meets the limit, and the highest grid rate when the highest
// point meets it (the capacity is at least that rate). Points must be
// sorted by rate.
func sloKops(pts []sloPoint) float64 {
	last := -1
	for i, p := range pts {
		if p.margin() <= 1 {
			last = i
		}
	}
	if last < 0 {
		return 0
	}
	if last == len(pts)-1 {
		return pts[last].kops
	}
	a, b := pts[last], pts[last+1]
	ma, mb := a.margin(), b.margin()
	return a.kops + (1-ma)/(mb-ma)*(b.kops-a.kops)
}

// effectiveP99 turns the latency distribution of completed requests into
// the 99th percentile over all offered ones, with refused requests counted
// as misses: the offered p99 is the completed-request quantile at
// 0.99·offered/completed. When more than 1% were refused that quantile
// lies past every completed request, and the slowest completion stands in
// (the shed fraction then decides the margin). quantile reads the
// completed-request distribution.
func effectiveP99(offered, completed int64, quantile func(q float64) float64) float64 {
	if completed <= 0 {
		return math.Inf(1)
	}
	q := 0.99 * float64(offered) / float64(completed)
	return quantile(math.Min(q, 1))
}

// paperErr is the mean relative error of simulated values against the
// paper's numbers, point by point.
func paperErr(simulated, paper []float64) float64 {
	if len(simulated) == 0 || len(simulated) != len(paper) {
		return math.NaN()
	}
	var sum float64
	for i := range paper {
		sum += math.Abs(simulated[i]-paper[i]) / paper[i]
	}
	return sum / float64(len(paper))
}

// opsOutcome is the request accounting of one serving point, or the
// datapoint accounting of one figure spec.
type opsOutcome struct {
	attempted int64
	completed int64
	shed      int64
	// excusedShed is the part of shed refused inside a failover window:
	// a shard that is down refuses by design, so those are not failures.
	excusedShed int64
	// lost counts acknowledged records a failover did not recover.
	lost int64
	// errored marks a job that returned an error: all of its operations
	// failed.
	errored bool
}

// failed is the number of the outcome's operations that count as failures.
func (o opsOutcome) failed() int64 {
	if o.errored {
		return o.attempted
	}
	return o.shed - o.excusedShed + o.lost
}

// consistent reports whether the point's counts add up: no more requests
// completed or refused than were offered.
func (o opsOutcome) consistent() bool {
	return o.errored || o.completed+o.shed <= o.attempted
}

// failFrac sums failures over attempts across outcomes.
func failFrac(outs []opsOutcome) (attempted, failed int64, frac float64) {
	for _, o := range outs {
		attempted += o.attempted
		failed += o.failed()
	}
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	return attempted, failed, frac
}

// repoPrefix is the import-path prefix of the simulator's packages.
const repoPrefix = "optanestudy/internal/"

// hostPkgs are the packages the host profile is split by. Samples whose
// innermost repo frame is in another repo package count as "other";
// samples with no repo frame count as "runtime".
var hostPkgs = []string{
	"sim", "cache", "dimm", "imc", "platform", "mem", "pmem", "pmemkv",
	"hottier", "service", "cluster", "replica", "stats", "workload",
	"novafs", "lsmkv", "lattester", "telemetry",
}

// repoPkg returns the repo package a function belongs to, or "" for a
// function outside optanestudy/internal.
func repoPkg(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// bucket returns the profile bucket of one stack, given innermost frame
// first: the package of its innermost repo frame, "other" for a repo
// package outside hostPkgs, or "runtime" when no frame is in the repo.
func bucket(stack []string) string {
	for _, fn := range stack {
		pkg := repoPkg(fn)
		if pkg == "" {
			continue
		}
		for _, p := range hostPkgs {
			if p == pkg {
				return pkg
			}
		}
		return "other"
	}
	return "runtime"
}

// bucketShares folds weighted stacks into each bucket's share of the
// total weight. Every hostPkgs entry, "other" and "runtime" are present.
func bucketShares(stacks [][]string, weights []int64) map[string]float64 {
	out := make(map[string]float64, len(hostPkgs)+2)
	for _, p := range hostPkgs {
		out[p] = 0
	}
	out["other"], out["runtime"] = 0, 0
	var total int64
	for i, st := range stacks {
		out[bucket(st)] += float64(weights[i])
		total += weights[i]
	}
	if total > 0 {
		for k := range out {
			out[k] /= float64(total)
		}
	}
	return out
}

// median returns the middle of vals (the mean of the two middle values for
// an even count); vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
