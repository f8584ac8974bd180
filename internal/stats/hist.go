// Package stats provides the statistics used throughout the study:
// latency histograms with tail percentiles, summary statistics, least-squares
// regression (for the EWR/bandwidth correlation), and tabular series for
// regenerating the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram records latency-like samples with high-resolution log-linear
// buckets, supporting accurate tail percentiles without storing every
// sample. Values are arbitrary non-negative float64s (we use nanoseconds).
//
// Bucketing: values are grouped by (exponent, 1/64 mantissa slice), giving a
// worst-case relative error of ~1.6% per bucket — plenty for p99.999 work.
// Exact minimum and maximum are tracked separately.
//
// The buckets are dense: counts holds every bucket from lo up, a whole
// number of powers of two, so a histogram costs 512 B per power of two
// its samples span and an Add is an index, not a hash.
type Histogram struct {
	count  int64
	sum    float64
	min    float64
	max    float64
	zeros  int64   // samples in bucket math.MinInt32: v <= 0
	lo     int32   // bucket of counts[0], a multiple of 1<<histSubBits
	counts []int64 // buckets lo, lo+1, ...
}

const histSubBits = 6 // 64 sub-buckets per power of two

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.Inf(1), max: math.Inf(-1)}
}

// cover widens counts to hold buckets lo..hi, rounded out to whole powers
// of two.
func (h *Histogram) cover(lo, hi int32) {
	lo &^= 1<<histSubBits - 1
	hi |= 1<<histSubBits - 1
	if n := int32(len(h.counts)); n > 0 {
		lo, hi = min(lo, h.lo), max(hi, h.lo+n-1)
		if lo == h.lo && hi == h.lo+n-1 {
			return
		}
	}
	counts := make([]int64, hi-lo+1)
	if len(h.counts) > 0 {
		copy(counts[h.lo-lo:], h.counts)
	}
	h.lo, h.counts = lo, counts
}

func bucketOf(v float64) int32 {
	if v <= 0 {
		return math.MinInt32
	}
	exp := math.Floor(math.Log2(v))
	frac := v/math.Exp2(exp) - 1 // in [0, 1)
	sub := int32(frac * (1 << histSubBits))
	if sub >= 1<<histSubBits {
		sub = 1<<histSubBits - 1
	}
	return int32(exp)<<histSubBits + sub
}

func bucketLow(b int32) float64 {
	if b == math.MinInt32 {
		return 0
	}
	exp := b >> histSubBits
	sub := b & (1<<histSubBits - 1)
	return math.Exp2(float64(exp)) * (1 + float64(sub)/(1<<histSubBits))
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	b := bucketOf(v)
	if b == math.MinInt32 { // v <= 0 (or not finite)
		h.zeros++
		return
	}
	if i := b - h.lo; i < 0 || int(i) >= len(h.counts) {
		h.cover(b, b)
	}
	h.counts[b-h.lo]++
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the value at quantile q in [0, 1]. Within a bucket the
// lower bound is returned; the exact min/max are used at the extremes.
func (h *Histogram) Percentile(q float64) float64 {
	return h.Quantiles([]float64{q})[0]
}

// Quantiles returns the values at each quantile in qs (each in [0, 1], any
// order), in one pass over the buckets — cheaper than repeated Percentile
// calls, and what reporters use for p50/p95/p99/p99.9 rows. The result is
// parallel to qs.
func (h *Histogram) Quantiles(qs []float64) []float64 {
	out := make([]float64, len(qs))
	if h.count == 0 {
		return out
	}
	// Order the requested quantiles so one bucket walk answers all of them.
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return qs[order[i]] < qs[order[j]] })

	// The non-empty buckets in order; math.MinInt32 is the bucket of
	// samples <= 0, below every other.
	var keys []int32
	if h.zeros > 0 {
		keys = append(keys, math.MinInt32)
	}
	for i, c := range h.counts {
		if c > 0 {
			keys = append(keys, h.lo+int32(i))
		}
	}
	countOf := func(k int32) int64 {
		if k == math.MinInt32 {
			return h.zeros
		}
		return h.counts[k-h.lo]
	}

	ki, next := 0, 0
	var seen int64
	for _, oi := range order {
		q := qs[oi]
		switch {
		case q <= 0:
			out[oi] = h.min
			continue
		case q >= 1:
			out[oi] = h.max
			continue
		}
		rank := int64(math.Ceil(q * float64(h.count)))
		for seen < rank && ki < len(keys) {
			seen += countOf(keys[ki])
			next = ki
			ki++
		}
		if seen < rank {
			out[oi] = h.max
			continue
		}
		v := bucketLow(keys[next])
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		out[oi] = v
	}
	return out
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.zeros += other.zeros
	if len(other.counts) > 0 {
		h.cover(other.lo, other.lo+int32(len(other.counts))-1)
		for i, c := range other.counts {
			h.counts[other.lo-h.lo+int32(i)] += c
		}
	}
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p99=%.1f p99.99=%.1f max=%.1f",
		h.count, h.Mean(), h.Percentile(0.5), h.Percentile(0.99), h.Percentile(0.9999), h.Max())
}
