// Package experiments regenerates every table and figure of the SDF
// paper's evaluation (§3) against the simulated devices. Each function
// runs the corresponding workload and returns a Table whose rows put
// our measurements next to the paper's published numbers, so the
// harness (cmd/sdfbench) can print paper-style output and
// EXPERIMENTS.md can record the comparison. A registry entry may carry
// a contract (Entry.Check) that its table must satisfy.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"sdf/internal/core"
	"sdf/internal/fault"
	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/ssd"
	"sdf/internal/trace"
)

// Options scales experiment durations.
type Options struct {
	// Quick shortens measurement windows (tests, smoke runs) at some
	// cost in statistical stability.
	Quick bool
	// Tracer, when non-nil, collects virtual-time trace events from
	// experiments that support tracing (Figure 8, Faults, Recovery and
	// CoDesign). The same collector accumulates across the experiment's
	// sequential simulations; exporters re-sort into canonical order.
	Tracer *trace.Collector
	// FaultPlan overrides the availability experiment's default fault
	// schedule (sdfbench -faults plan.json).
	FaultPlan *fault.Plan
	// Stats, when non-nil, collects kernel counters from every sim.Env
	// the experiment creates; RunAll sets it to report events.
	Stats *KernelStats
}

// newEnv creates a simulation environment and registers it with the
// harness's kernel-stats collector. Experiment code must use this
// instead of sim.NewEnv so event counts are attributed to the run.
func (o Options) newEnv() *sim.Env {
	env := sim.NewEnv()
	o.Stats.track(env)
	return env
}

// newTracedEnv is newEnv with the Tracer, if any, attached and its
// events labelled dev.
func (o Options) newTracedEnv(dev string) *sim.Env {
	env := o.newEnv()
	if o.Tracer != nil {
		o.Tracer.SetDev(dev)
		env.SetTracer(o.Tracer)
	}
	return env
}

// scale returns d, halved in quick mode.
func (o Options) scale(d time.Duration) time.Duration {
	if o.Quick {
		return d / 2
	}
	return d
}

// Table is one regenerated result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Metrics carries the raw measured values behind the formatted
	// rows (bytes/s, milliseconds, ratios), keyed by a stable
	// dot-separated name, for machine-readable bench output.
	Metrics map[string]float64
	// Observability is the metrics/SLO payload of the experiments
	// that run replica groups (Faults and CoDesign), nil elsewhere.
	Observability *Observability
}

// Observability carries an experiment's exported metrics: the
// Prometheus text snapshot, the sampled time series, their SHA-256
// fingerprints (byte-stable across seeded reruns, like trace hashes),
// and the SLO engine's verdicts.
type Observability struct {
	SnapshotSHA256 string                    `json:"snapshot_sha256"`
	SeriesSHA256   string                    `json:"series_sha256"`
	SLO            []metrics.ObjectiveResult `json:"slo,omitempty"`
	Alerts         int                       `json:"alerts"`
	// Raw exports, written to METRICS_<exp>.prom / .jsonl by sdfbench
	// -metrics; excluded from the BENCH JSON (the hashes stand in).
	Snapshot []byte `json:"-"`
	Series   []byte `json:"-"`
}

// metric records one raw measured value.
func (t *Table) metric(key string, v float64) {
	if t.Metrics == nil {
		t.Metrics = make(map[string]float64)
	}
	t.Metrics[key] = v
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// mb formats a byte rate as MB/s.
func mb(bytesPerSec float64) string {
	return fmt.Sprintf("%.0f MB/s", bytesPerSec/1e6)
}

// gb formats a byte rate as GB/s.
func gb(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f GB/s", bytesPerSec/1e9)
}

// newSDF builds an SDF device scaled to blocksPerPlane.
func newSDF(env *sim.Env, blocksPerPlane int) *core.Device {
	cfg := core.DefaultConfig()
	cfg.Channel.Nand.BlocksPerPlane = blocksPerPlane
	cfg.Channel.SparePerPlane = 2
	d, err := core.New(env, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// newSSD builds a conventional SSD from a profile, panicking on
// misconfiguration (experiment profiles are fixed).
func newSSD(env *sim.Env, prof ssd.Profile) *ssd.SSD {
	s, err := ssd.New(env, prof)
	if err != nil {
		panic(err)
	}
	return s
}

// meterCtx measures the aggregate byte rate of closed-loop workers
// (loop) over the ops that start inside [warmup, deadline].
type meterCtx struct {
	env        *sim.Env
	warmup     time.Duration
	deadline   time.Duration
	total      int64
	firstStart time.Duration
	lastEnd    time.Duration
}

func newMeterCtx(env *sim.Env, warmup, deadline time.Duration) *meterCtx {
	return &meterCtx{env: env, warmup: warmup, deadline: deadline, firstStart: -1}
}

// loop runs fn in a closed loop until the deadline, crediting bytes
// for iterations that start inside the measurement window. Credited
// operations run to completion even past the deadline.
func (m *meterCtx) loop(name string, fn func(p *sim.Proc) int) {
	m.env.Go(name, func(p *sim.Proc) {
		for m.env.Now() < m.deadline {
			start := m.env.Now()
			n := fn(p)
			if n < 0 {
				return // worker aborted
			}
			if start >= m.warmup && n > 0 {
				m.total += int64(n)
				if m.firstStart < 0 || start < m.firstStart {
					m.firstStart = start
				}
				if end := m.env.Now(); end > m.lastEnd {
					m.lastEnd = end
				}
			}
		}
	})
}

// rate finishes the run and returns throughput over the busy span of
// credited operations [first credited start, last credited end] —
// unbiased for closed loops even when the window holds few operations.
func (m *meterCtx) rate() float64 {
	m.env.RunUntil(m.deadline + 10*time.Second)
	if m.firstStart < 0 || m.lastEnd <= m.firstStart {
		return 0
	}
	return float64(m.total) / (m.lastEnd - m.firstStart).Seconds()
}

// loopRate runs n closed-loop workers on env, worker(i) building the
// i-th (spawned in index order), meters them over [warmup, deadline],
// closes env and returns the rate.
func loopRate(env *sim.Env, n int, warmup, deadline time.Duration, worker func(i int) func(p *sim.Proc) int) float64 {
	defer env.Close()
	m := newMeterCtx(env, warmup, deadline)
	for i := 0; i < n; i++ {
		m.loop("worker", worker(i))
	}
	return m.rate()
}

// sdfBlockWrites builds per-channel workers that erase+write their
// channel's logical blocks [0, blocks) round robin.
func sdfBlockWrites(dev *core.Device, blocks int) func(ch int) func(p *sim.Proc) int {
	return func(ch int) func(p *sim.Proc) int {
		lbn := 0
		return func(p *sim.Proc) int {
			if err := dev.EraseWrite(p, ch, lbn, nil); err != nil {
				return -1
			}
			lbn = (lbn + 1) % blocks
			return dev.BlockSize()
		}
	}
}

// sdfBlockReads builds per-channel workers that write their channel's
// block 0 once, uncredited, then read size bytes of it at off().
func sdfBlockReads(dev *core.Device, size int, off func() int) func(ch int) func(p *sim.Proc) int {
	return func(ch int) func(p *sim.Proc) int {
		wrote := false
		return func(p *sim.Proc) int {
			if !wrote {
				if err := dev.EraseWrite(p, ch, 0, nil); err != nil {
					return -1
				}
				wrote = true
				return 0
			}
			if _, err := dev.Read(p, ch, 0, off(), size); err != nil {
				return -1
			}
			return size
		}
	}
}

// ssdIO builds workers that read size bytes of a 90%-filled dev, or
// write them, at the offsets next(w) returns for worker w.
func ssdIO(dev *ssd.SSD, write bool, size int64, next func(w int) int64) func(w int) func(p *sim.Proc) int {
	if !write {
		if err := dev.WarmFill(0.9); err != nil {
			panic(err)
		}
	}
	return func(w int) func(p *sim.Proc) int {
		return func(p *sim.Proc) int {
			off := next(w)
			var err error
			if write {
				err = dev.Write(p, off, size)
			} else {
				err = dev.Read(p, off, size)
			}
			if err != nil {
				return -1
			}
			return int(size)
		}
	}
}
