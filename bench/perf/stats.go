package main

import (
	"sort"
	"time"
)

// quartiles returns the three cut points of vals as Python's
// statistics.quantiles(vals, n=4) computes them (exclusive method), so
// the spreads this tool prints match the ones the acceptance procedure
// computes. Fewer than two values yield that value three times.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle value (mean of the two middle values for an
// even count).
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(vals []float64) (lo, hi float64) {
	for i, v := range vals {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

// latencies is a set of simulated request latencies. percentile and
// tail want it sorted (sort).
type latencies []time.Duration

func (l latencies) sort() { sort.Slice(l, func(i, j int) bool { return l[i] < l[j] }) }

// supports reports whether at least ten samples lie beyond the pct-th
// percentile: p99 needs 1000 samples, p90 100, p50 20.
func (l latencies) supports(pct int) bool {
	return len(l)*(100-pct) >= 1000
}

// percentile returns the pct-th percentile of the sorted sample in
// simulated milliseconds (nearest rank), or 0 when the sample does not
// support it.
func (l latencies) percentile(pct int) float64 {
	if !l.supports(pct) {
		return 0
	}
	return ms(l[len(l)*pct/100])
}

// tail returns the highest of p99, p90 and p50 the sample supports,
// with the percentile it is; (0, 0) under twenty samples.
func (l latencies) tail() (pct int, v float64) {
	for _, pct := range []int{99, 90, 50} {
		if l.supports(pct) {
			return pct, l.percentile(pct)
		}
	}
	return 0, 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
