// Package metrics provides measurement instruments for simulations:
// latency histograms with logarithmic buckets and raw sample recorders
// for latency traces.
package metrics

import (
	"math"
	"sort"
	"time"
)

// Histogram records durations in logarithmic buckets (multiplicative
// width bucketBase per step) and tracks exact count, sum, min, and max.
// The zero value is not usable; call NewHistogram.
type Histogram struct {
	counts []uint64
	count  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// bucketBase is the multiplicative bucket width: each bucket covers a
// ~9% range, giving ~2.5% worst-case quantile error.
const bucketBase = 1.09

// numBuckets covers 1 ns to >1 hour at bucketBase growth.
const numBuckets = 340

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, numBuckets), min: math.MaxInt64}
}

func bucketOf(d time.Duration) int {
	if d < 1 {
		return 0
	}
	b := int(math.Log(float64(d)) / math.Log(bucketBase))
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// Observe records one duration. A nil histogram drops the sample, so
// callers can observe into an instrument that only exists when a
// metrics registry is attached.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[bucketOf(d)]++
	h.count++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the average observation, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1),
// interpolating linearly within the containing log bucket by the
// rank's position among that bucket's observations. Compared to the
// bucket's geometric midpoint this keeps dense quantiles (p50 of a
// tight distribution) from all collapsing onto one midpoint value.
// The result is clamped to [Min, Max], which also keeps it monotone
// in q at the edges.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return 0 // NaN has no rank; 0 beats poisoning the caller's math
	}
	if q <= 0 {
		return h.Min() // exact: the 0-quantile is the smallest observation
	}
	if q >= 1 {
		return h.Max() // exact: the 1-quantile is the largest observation
	}
	rank := uint64(q * float64(h.count-1))
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			lo := math.Pow(bucketBase, float64(b))
			hi := math.Pow(bucketBase, float64(b)+1)
			// Position of the rank within this bucket's c observations,
			// offset half a sample so a lone observation lands mid-bucket.
			frac := (float64(rank-(seen-c)) + 0.5) / float64(c)
			d := time.Duration(lo + frac*(hi-lo))
			if d < h.min {
				d = h.min
			}
			if d > h.max {
				d = h.max
			}
			return d
		}
	}
	return h.max
}

// HistogramState is a point-in-time copy of a histogram's cumulative
// buckets, taken with State. Two states bracket a window; Delta
// recovers the distribution of just that window's observations, which
// is what rolling-window quantile evaluation (the SLO engine) needs
// from a cumulative instrument.
type HistogramState struct {
	counts []uint64
	count  uint64
	sum    time.Duration
}

// State snapshots the histogram's buckets. A nil histogram snapshots
// as empty.
func (h *Histogram) State() HistogramState {
	if h == nil {
		return HistogramState{}
	}
	return HistogramState{
		counts: append([]uint64(nil), h.counts...),
		count:  h.count,
		sum:    h.sum,
	}
}

// Delta returns a histogram holding the observations recorded after
// prev and up to s (both snapshots of the same instrument). Exact
// min/max are not recoverable from cumulative buckets, so the delta's
// extremes are the bucket bounds of its lowest and highest non-empty
// buckets — Quantile's clamping then stays within the window.
func (s HistogramState) Delta(prev HistogramState) *Histogram {
	h := NewHistogram()
	if s.count <= prev.count {
		return h
	}
	h.count = s.count - prev.count
	h.sum = s.sum - prev.sum
	for b := range h.counts {
		var p uint64
		if b < len(prev.counts) {
			p = prev.counts[b]
		}
		if b < len(s.counts) && s.counts[b] > p {
			h.counts[b] = s.counts[b] - p
			hi := time.Duration(math.Pow(bucketBase, float64(b)+1))
			if h.min == math.MaxInt64 {
				h.min = time.Duration(math.Pow(bucketBase, float64(b)))
			}
			if hi > h.max {
				h.max = hi
			}
		}
	}
	return h
}

// Series records raw samples (for latency traces like the paper's
// Figure 8, where the individual per-request values matter).
type Series struct {
	samples []time.Duration
}

// Observe appends one sample.
func (s *Series) Observe(d time.Duration) { s.samples = append(s.samples, d) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// Mean returns the average sample, or 0 if empty.
func (s *Series) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range s.samples {
		sum += v
	}
	return sum / time.Duration(len(s.samples))
}

// Min returns the smallest sample, or 0 if empty.
func (s *Series) Min() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	min := s.samples[0]
	for _, v := range s.samples[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest sample, or 0 if empty.
func (s *Series) Max() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	max := s.samples[0]
	for _, v := range s.samples[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// StdDev returns the population standard deviation of the samples.
func (s *Series) StdDev() time.Duration {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := float64(s.Mean())
	var acc float64
	for _, v := range s.samples {
		d := float64(v) - mean
		acc += d * d
	}
	return time.Duration(math.Sqrt(acc / float64(n)))
}

// CoeffVar returns the coefficient of variation (stddev/mean), a
// dimensionless measure of latency predictability.
func (s *Series) CoeffVar() float64 {
	mean := s.Mean()
	if mean == 0 {
		return 0
	}
	return float64(s.StdDev()) / float64(mean)
}

// Percentile returns the exact nearest-rank p-th percentile (0-100),
// the ceil(p·n/100)-th smallest sample, by sorting a copy of them.
func (s *Series) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(s.samples))
	copy(sorted, s.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p*float64(len(sorted))/100)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
