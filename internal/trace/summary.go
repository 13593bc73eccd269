package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// PhaseStat is the latency summary of one (device, phase, span name)
// group: the row of the per-stage breakdown table.
type PhaseStat struct {
	Dev   string
	Phase string
	Name  string
	Count int
	Total time.Duration
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
	// CV is the coefficient of variation (stddev/mean) — the paper's
	// measure of latency predictability (Figure 8).
	CV float64
}

// phaseRank orders phases the way an I/O traverses them.
var phaseRank = map[string]int{
	PhaseOp:       0,
	PhaseSoftware: 1,
	PhaseQueue:    2,
	PhaseBus:      3,
	PhaseFlash:    4,
	PhaseFault:    5,
	PhaseRecovery: 6,
}

// Summarize pairs span begin/end events and aggregates their
// durations per (device, phase, name), sorted by device, then phase
// in pipeline order, then name. Unclosed spans are ignored.
func Summarize(events []Event) []PhaseStat {
	type key struct{ dev, phase, name string }
	begins := make(map[SpanID]Event)
	groups := make(map[key][]time.Duration)
	for _, ev := range sortedEvents(events) {
		switch ev.Kind {
		case KindSpanBegin:
			begins[ev.Span] = ev
		case KindSpanEnd:
			b, ok := begins[ev.Span]
			if !ok {
				continue
			}
			delete(begins, ev.Span)
			k := key{b.Dev, b.Phase, b.Name}
			groups[k] = append(groups[k], ev.At-b.At)
		}
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.dev != b.dev {
			return a.dev < b.dev
		}
		ra, rb := phaseOrder(a.phase), phaseOrder(b.phase)
		if ra != rb {
			return ra < rb
		}
		if a.phase != b.phase {
			return a.phase < b.phase
		}
		return a.name < b.name
	})
	stats := make([]PhaseStat, 0, len(keys))
	for _, k := range keys {
		ds := groups[k]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var total time.Duration
		for _, d := range ds {
			total += d
		}
		mean := total / time.Duration(len(ds))
		var acc float64
		for _, d := range ds {
			diff := float64(d) - float64(mean)
			acc += diff * diff
		}
		cv := 0.0
		if mean > 0 {
			cv = math.Sqrt(acc/float64(len(ds))) / float64(mean)
		}
		stats = append(stats, PhaseStat{
			Dev: k.dev, Phase: k.phase, Name: k.name,
			Count: len(ds), Total: total, Mean: mean,
			P50: percentile(ds, 50), P99: percentile(ds, 99),
			Max: ds[len(ds)-1], CV: cv,
		})
	}
	return stats
}

func phaseOrder(phase string) int {
	if r, ok := phaseRank[phase]; ok {
		return r
	}
	return len(phaseRank)
}

// percentile returns the nearest-rank p-th percentile of sorted
// durations: the smallest value with at least p% of the samples at or
// below it, so the p99 of a group under 100 samples is its maximum.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted))/100)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// FormatSummary renders the breakdown as an aligned table:
// one row per (device, phase, span name), pipeline order.
func FormatSummary(stats []PhaseStat) string {
	var b strings.Builder
	rows := [][]string{{"device", "phase", "span", "count", "total", "mean", "p50", "p99", "max", "cv"}}
	for _, s := range stats {
		rows = append(rows, []string{
			s.Dev, s.Phase, s.Name,
			fmt.Sprintf("%d", s.Count),
			fmtDur(s.Total), fmtDur(s.Mean), fmtDur(s.P50), fmtDur(s.P99), fmtDur(s.Max),
			fmt.Sprintf("%.2f", s.CV),
		})
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fmtDur renders a duration in fixed units per magnitude so columns
// stay comparable (ns exact below 1 µs, else 3 significant decimals).
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(d)/float64(time.Second))
	}
}
