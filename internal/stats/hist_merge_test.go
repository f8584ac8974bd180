package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Merging per-worker histograms and then taking quantiles must equal the
// quantiles of one global histogram over the same values — bucket counts
// add exactly, so sharded recording (per-phase histograms filled by many
// workers, merged at Finish) cannot drift from a single-recorder run.
func TestMergeThenQuantileEqualsGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	global := NewHistogram()
	parts := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram(), NewHistogram()}
	for i := 0; i < 40000; i++ {
		// A long-tailed mix: mostly fast ops, occasional 100x stragglers.
		v := rng.Float64() * 1000
		if rng.Intn(50) == 0 {
			v *= 100
		}
		global.Add(v)
		parts[i%len(parts)].Add(v)
	}
	merged := NewHistogram()
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != global.Count() {
		t.Fatalf("merged count %d != global %d", merged.Count(), global.Count())
	}
	qs := []float64{0.5, 0.95, 0.99, 0.999}
	mq, gq := merged.Quantiles(qs), global.Quantiles(qs)
	for i, q := range qs {
		if mq[i] != gq[i] {
			t.Errorf("q%g: merged %g != global %g", q, mq[i], gq[i])
		}
	}
	// Quantiles and max come from integer bucket counts and are exact; the
	// mean is a float sum whose order differs, so allow rounding slack.
	if d := merged.Mean() - global.Mean(); d > 1e-6 || d < -1e-6 {
		t.Errorf("merged mean %g != global %g", merged.Mean(), global.Mean())
	}
	if merged.Max() != global.Max() {
		t.Errorf("merged max %g != global %g", merged.Max(), global.Max())
	}
}

// Averaging per-part quantiles is NOT a quantile of the union: with skewed
// parts it lands far from the true p99, which is why the recorder merges
// histograms and only then summarizes. This pins the divergence so nobody
// "simplifies" Finish into a mean-of-quantiles.
func TestQuantileThenAverageDiverges(t *testing.T) {
	fast, slow := NewHistogram(), NewHistogram()
	for i := 0; i < 9900; i++ {
		fast.Add(100)
	}
	for i := 0; i < 100; i++ {
		slow.Add(100000)
	}
	merged := NewHistogram()
	merged.Merge(fast)
	merged.Merge(slow)
	truth := merged.Percentile(0.99)
	avg := (fast.Percentile(0.99) + slow.Percentile(0.99)) / 2
	// The union's p99 sits at the fast/slow boundary; the average of the
	// two per-part p99s is dominated by the all-slow part.
	if truth >= 100000 {
		t.Fatalf("union p99 = %g, expected below the slow mode", truth)
	}
	if avg < 10*truth {
		t.Fatalf("mean-of-quantiles %g does not diverge from union p99 %g", avg, truth)
	}
}

// An empty histogram — a phase no op ever entered — reports zeros, not
// NaNs or stale values, so absent phases render cleanly in summaries.
func TestEmptyHistogramZeroes(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram: count=%d mean=%g max=%g, want zeros",
			h.Count(), h.Mean(), h.Max())
	}
	for i, q := range h.Quantiles([]float64{0.5, 0.99}) {
		if q != 0 {
			t.Errorf("empty quantile[%d] = %g, want 0", i, q)
		}
	}
	if p := h.Percentile(0.99); p != 0 {
		t.Errorf("empty percentile = %g, want 0", p)
	}
}

// TestHistogramMatchesSortedReference checks quantiles against a direct
// computation over the sorted samples — the rank-th sample's bucket low,
// clamped to [min, max] — for samples spanning twelve decades in random
// order (so the dense bucket range grows down as well as up), with zeros
// and negatives in the bottom bucket, before and after a merge.
func TestHistogramMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var samples []float64
	h, a, b := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 0; i < 5000; i++ {
		v := math.Pow(10, rng.Float64()*12-3)
		switch rng.Intn(40) {
		case 0:
			v = 0
		case 1:
			v = -v
		}
		samples = append(samples, v)
		h.Add(v)
		if i%3 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	sort.Float64s(samples)
	lo, hi := samples[0], samples[len(samples)-1]
	for _, q := range []float64{0.001, 0.01, 0.02, 0.1, 0.5, 0.9, 0.99, 0.999} {
		v := samples[int(math.Ceil(q*float64(len(samples))))-1]
		want := bucketLow(bucketOf(v))
		want = math.Min(math.Max(want, lo), hi)
		if got := h.Percentile(q); got != want {
			t.Errorf("q%g = %g, want %g", q, got, want)
		}
		if got := a.Percentile(q); got != want {
			t.Errorf("merged q%g = %g, want %g", q, got, want)
		}
	}
}
