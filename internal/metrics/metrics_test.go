package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Fatalf("Mean = %v, want 2ms", h.Mean())
	}
	if h.Min() != time.Millisecond || h.Max() != 3*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		h.Observe(time.Duration(rng.Intn(1000)+1) * time.Microsecond)
	}
	p50 := h.Quantile(0.5)
	// Uniform [1µs,1000µs]: true median ~500µs; log buckets give ~9% error.
	if p50 < 400*time.Microsecond || p50 > 600*time.Microsecond {
		t.Fatalf("p50 = %v, want ~500µs", p50)
	}
	if h.Quantile(0) < h.Min() {
		t.Fatalf("q0 < min")
	}
	if h.Quantile(1) > h.Max() {
		t.Fatalf("q1 > max")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Observe(time.Duration(v%1e9) + 1)
		}
		prev := time.Duration(0)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Observe(383 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 383*time.Millisecond {
			t.Fatalf("Quantile(%v) = %v, want 383ms", q, got)
		}
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	// 1000 identical observations plus one straggler: interpolated
	// quantiles must track the dense mass, and q=0/q=1 must pin to the
	// exact extremes (the clamp, not the bucket boundary).
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(10 * time.Millisecond)
	if got := h.Quantile(0); got != 100*time.Microsecond {
		t.Fatalf("Quantile(0) = %v, want exact min 100µs", got)
	}
	if got := h.Quantile(1); got != 10*time.Millisecond {
		t.Fatalf("Quantile(1) = %v, want exact max 10ms", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 95*time.Microsecond || p50 > 110*time.Microsecond {
		t.Fatalf("p50 = %v, want ~100µs (within one log bucket)", p50)
	}
	// Interpolation must move within one bucket: a rank early in the
	// bucket's mass must not exceed a rank late in it.
	if h.Quantile(0.1) > h.Quantile(0.9) {
		t.Fatalf("within-bucket interpolation not monotone: q10=%v q90=%v",
			h.Quantile(0.1), h.Quantile(0.9))
	}
}

func TestHistogramSubNanosecond(t *testing.T) {
	// Durations below 1 ns (including 0 and negative artifacts) land in
	// bucket 0 and must not panic or break min/max accounting.
	h := NewHistogram()
	h.Observe(0)
	h.Observe(1) // 1 ns
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	if h.Min() != 0 || h.Max() != 1 {
		t.Fatalf("Min/Max = %v/%v, want 0/1ns", h.Min(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got < 0 || got > 1 {
			t.Fatalf("Quantile(%v) = %v, want within [0,1ns]", q, got)
		}
	}
	if b := bucketOf(-time.Nanosecond); b != 0 {
		t.Fatalf("bucketOf(-1ns) = %d, want 0", b)
	}
	if b := bucketOf(0); b != 0 {
		t.Fatalf("bucketOf(0) = %d, want 0", b)
	}
}

func TestHistogramQuantileOutOfRangeQ(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	if got := h.Quantile(-0.5); got != h.Quantile(0) {
		t.Fatalf("Quantile(-0.5) = %v, want clamped to q0 %v", got, h.Quantile(0))
	}
	if got := h.Quantile(1.5); got != h.Quantile(1) {
		t.Fatalf("Quantile(1.5) = %v, want clamped to q1 %v", got, h.Quantile(1))
	}
}

func TestSeriesStats(t *testing.T) {
	var s Series
	for _, v := range []time.Duration{10, 20, 30, 40, 50} {
		s.Observe(v * time.Millisecond)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Mean() != 30*time.Millisecond {
		t.Fatalf("Mean = %v, want 30ms", s.Mean())
	}
	if s.Min() != 10*time.Millisecond || s.Max() != 50*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 30*time.Millisecond {
		t.Fatalf("p50 = %v, want 30ms", got)
	}
}

func TestSeriesStdDevConstant(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Observe(time.Second)
	}
	if s.StdDev() != 0 {
		t.Fatalf("StdDev of constant series = %v, want 0", s.StdDev())
	}
	if s.CoeffVar() != 0 {
		t.Fatalf("CoeffVar of constant series = %v, want 0", s.CoeffVar())
	}
}

func TestSeriesCoeffVarSpread(t *testing.T) {
	var tight, wide Series
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		tight.Observe(time.Duration(380+rng.Intn(7)) * time.Millisecond)
		wide.Observe(time.Duration(7+rng.Intn(643)) * time.Millisecond)
	}
	if tight.CoeffVar() >= wide.CoeffVar() {
		t.Fatalf("tight CV %.3f should be < wide CV %.3f", tight.CoeffVar(), wide.CoeffVar())
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.StdDev() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestSeriesPercentileBounds(t *testing.T) {
	var s Series
	for _, v := range []time.Duration{10, 20, 30} {
		s.Observe(v * time.Millisecond)
	}
	if got := s.Percentile(0); got != 10*time.Millisecond {
		t.Fatalf("p0 = %v, want 10ms", got)
	}
	if got := s.Percentile(100); got != 30*time.Millisecond {
		t.Fatalf("p100 = %v, want 30ms", got)
	}
	// Out-of-range percentiles clamp to the extremes instead of
	// indexing out of bounds.
	if got := s.Percentile(-10); got != 10*time.Millisecond {
		t.Fatalf("p-10 = %v, want 10ms", got)
	}
	if got := s.Percentile(250); got != 30*time.Millisecond {
		t.Fatalf("p250 = %v, want 30ms", got)
	}
}

func TestSeriesSingleSample(t *testing.T) {
	var s Series
	s.Observe(383 * time.Millisecond)
	if s.Mean() != 383*time.Millisecond || s.Min() != 383*time.Millisecond || s.Max() != 383*time.Millisecond {
		t.Fatal("single-sample series stats should all equal the sample")
	}
	if s.StdDev() != 0 {
		t.Fatalf("StdDev = %v, want 0", s.StdDev())
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if got := s.Percentile(p); got != 383*time.Millisecond {
			t.Fatalf("Percentile(%v) = %v, want 383ms", p, got)
		}
	}
}

// TestSeriesPercentileNearestRank pins the nearest-rank rule: the
// p-th percentile of n samples is the ceil(p·n/100)-th smallest, so a
// short series' p99 is its maximum, never a lower sample. p7 and p55
// of 100 pin the expression's order: p/100·n rounds them up a rank.
func TestSeriesPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want time.Duration // samples are 1..n ms
	}{
		{1, 99, 1}, {1, 50, 1},
		{2, 99, 2}, {2, 50, 1},
		{3, 99, 3}, {3, 50, 2}, {3, 34, 2}, {3, 33, 1},
		{100, 99, 99}, {100, 50, 50}, {100, 100, 100}, {100, 1, 1},
		{100, 7, 7}, {100, 55, 55},
	} {
		var s Series
		for v := c.n; v >= 1; v-- {
			s.Observe(time.Duration(v) * time.Millisecond)
		}
		if got := s.Percentile(c.p); got != c.want*time.Millisecond {
			t.Errorf("n=%d: Percentile(%v) = %v, want %v", c.n, c.p, got, c.want*time.Millisecond)
		}
	}
}
