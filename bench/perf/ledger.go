package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef names one number of the ledger. BENCHMARK.json lists the
// same names, units, directions and bounds; a test keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Host   bool    // host cost of the simulator (noisy) vs simulated result (repeats exactly)
	Note   string
}

// Units. Simulated time is not host time and is labelled apart from it.
const (
	uHostS  = "s"
	uSimMS  = "sim_ms"
	uMBSimS = "MB/sim_s"
	uPerSim = "1/sim_s"
	uCount  = "count"
	uRatio  = "ratio"
	uMB     = "MB"
	uPct    = "%"
	uNS     = "ns"
)

// endToEnd is what a user of the benchmark sees, per workload.
var endToEnd = []metricDef{
	{"setup_s", uHostS, "lower", 0.25, true, "build + preload up to the first client op, speed-normalized, median over repetitions"},
	{"host_wall_s", uHostS, "lower", 0.25, true, "measured phase of one repetition, speed-normalized, median"},
	{"host_cpu_s", uHostS, "lower", 0.25, true, "process user+sys over the same phase (getrusage), speed-normalized, median"},
	{"host_allocs_per_op", uCount, "lower", 0.03, true, "heap allocations (Mallocs delta) per client request, median"},
	{"host_live_heap_mb", uMB, "lower", 0.05, true, "HeapAlloc after a forced GC at the horizon, stack still reachable, median"},
	{"sim_mb_per_s", uMBSimS, "higher", 0.12, false, "client payload bytes per simulated second"},
	{"sim_p50_ms", uSimMS, "lower", 0.02, false, "median latency of the workload's primary request"},
	{"sim_tail_ms", uSimMS, "lower", 0.15, false, "highest percentile of it with >=10 samples beyond (client.tail_pct says which)"},
	{"sim_ok_frac", uRatio, "higher", 0.002, false, "1 - (failed, shed, refused, lost or past-deadline requests / attempted)"},
	{"sim_write_amp", uRatio, "lower", 0.13, false, "flash bytes programmed / (user bytes put x replicas), preload included"},
	{"sim_slo_rate_ops", uPerSim, "higher", 0.05, false, "requests per simulated second sustained within the workload's limit"},
	{"sim_digest_ok", uCount, "higher", 0, false, "1 iff every repetition and traced pass simulated exactly the same thing"},
}

// perLayer is the ledger below the end-to-end numbers: counters from
// the layers' public Stats (untraced repetitions), and host CPU,
// allocations and virtual time attributed per layer (traced passes).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	count := func(better string, names ...string) []metricDef {
		var out []metricDef
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: uCount, Better: better})
		}
		return out
	}
	var m []metricDef
	m = append(m,
		metricDef{Name: "sim.events", Unit: uCount, Better: "lower", Note: "scheduler events dispatched in the measured phase"},
		metricDef{Name: "sim.events_per_op", Unit: uCount, Better: "lower"},
		metricDef{Name: "sim.host_ns_per_event", Unit: uNS, Better: "lower", Host: true},
		metricDef{Name: "sim.envs", Unit: uCount, Better: "lower"},
		metricDef{Name: "core.read_mb", Unit: uMB, Better: "higher"},
		metricDef{Name: "core.write_mb", Unit: uMB, Better: "lower"},
		metricDef{Name: "core.erase_mb", Unit: uMB, Better: "lower"},
		metricDef{Name: "core.read_mb_per_s", Unit: uMBSimS, Better: "higher"},
		metricDef{Name: "core.write_mb_per_s", Unit: uMBSimS, Better: "higher"},
	)
	m = append(m, count("lower", "flashchan.ecc_corrected", "flashchan.ecc_failures", "flashchan.dead_rejects")...)
	m = append(m, count("higher", "blocklayer.writes", "blocklayer.reads")...)
	m = append(m, count("lower", "blocklayer.inline_erases")...)
	m = append(m, count("higher", "blocklayer.background_erases")...)
	m = append(m, metricDef{Name: "blocklayer.inline_erase_frac", Unit: uRatio, Better: "lower"})
	m = append(m, count("lower", "blocklayer.read_retries", "blocklayer.quarantines", "blocklayer.wl_migrations")...)
	m = append(m, count("higher", "ccdb.puts", "ccdb.gets")...)
	m = append(m, metricDef{Name: "ccdb.mem_hit_frac", Unit: uRatio, Better: "higher"})
	m = append(m, count("lower", "ccdb.flushes", "ccdb.compactions", "ccdb.patches_written", "ccdb.patches_freed", "ccdb.compaction_reads")...)
	m = append(m, metricDef{Name: "ccdb.write_amp", Unit: uRatio, Better: "lower", Note: "flash bytes programmed / (user bytes put x replicas) within the measured phase"})
	m = append(m, count("higher", "rpcnet.calls")...)
	m = append(m, count("lower", "rpcnet.drops", "rpcnet.retries", "rpcnet.deadlines")...)
	m = append(m, count("higher", "cluster.gets", "cluster.puts")...)
	m = append(m, metricDef{Name: "cluster.hedge_frac", Unit: uRatio, Better: "lower"})
	m = append(m, count("lower", "cluster.failovers", "cluster.lost", "cluster.repairs",
		"cluster.window_deprioritized_reads", "cluster.delayed_writes", "cluster.shed_writes")...)
	m = append(m, count("higher", "coord.grants")...)
	m = append(m, count("lower", "coord.deferrals", "coord.forced", "coord.timeouts")...)
	m = append(m, count("higher", "client.ops", "client.read_samples", "client.write_samples")...)
	m = append(m,
		metricDef{Name: "client.tail_pct", Unit: uPct, Better: "higher", Note: "which percentile sim_tail_ms is: 99, 90 or 50"},
		metricDef{Name: "client.read_p50_ms", Unit: uSimMS, Better: "lower"},
		metricDef{Name: "client.read_tail_ms", Unit: uSimMS, Better: "lower"},
		metricDef{Name: "client.write_p50_ms", Unit: uSimMS, Better: "lower"},
		metricDef{Name: "client.write_tail_ms", Unit: uSimMS, Better: "lower"},
		metricDef{Name: "client.read_p99_ms.r1", Unit: uSimMS, Better: "lower"},
		metricDef{Name: "client.read_p99_ms.r2", Unit: uSimMS, Better: "lower"},
		metricDef{Name: "client.read_p99_ms.r3", Unit: uSimMS, Better: "lower"},
		metricDef{Name: "client.late_ms_max", Unit: uSimMS, Better: "lower", Note: "how late the open-loop generator ran"},
		metricDef{Name: "client.backlog_growth", Unit: uRatio, Better: "lower", Note: "reads in flight at the horizon / at half horizon, rate r2"},
		metricDef{Name: "client.write_mb_per_s", Unit: uMBSimS, Better: "higher", Note: "dev-raw 8 MB write phase"},
		metricDef{Name: "client.seq_read_mb_per_s", Unit: uMBSimS, Better: "higher", Note: "dev-raw 8 MB read phase"},
		metricDef{Name: "client.rand_read_mb_per_s", Unit: uMBSimS, Better: "higher", Note: "dev-raw 8 KB read phase"},
		metricDef{Name: "sim_paper_err_pct", Unit: uPct, Better: "lower", Note: "mean |sim - paper| / paper at the workload's reference points; 0 where the paper has none"},
		metricDef{Name: "runtime.gc_cycles", Unit: uCount, Better: "lower", Host: true},
		metricDef{Name: "host.speed", Unit: uRatio, Better: "higher", Host: true, Note: "machine speed relative to the reference during the run; host seconds are reported times it"},
	)
	for _, b := range buckets {
		m = append(m, metricDef{Name: cpuShareName(b), Unit: uRatio, Better: "lower", Host: true})
	}
	for _, b := range buckets {
		if b != bucketGC { // the collector does not allocate
			m = append(m, metricDef{Name: allocsName(b), Unit: uCount, Better: "lower", Host: true})
		}
	}
	for _, l := range vtLayers {
		m = append(m, metricDef{Name: l + ".vt_self_ms_per_op", Unit: uSimMS, Better: "lower"})
	}
	m = append(m,
		metricDef{Name: "trace.events", Unit: uCount, Better: "lower"},
		metricDef{Name: "trace.overhead_frac", Unit: uRatio, Better: "lower", Host: true, Note: "(pass A host wall - measured median) / measured median"},
		metricDef{Name: "trace.orphan_span_frac", Unit: uRatio, Better: "lower", Note: "spans whose root is not a client op"})
	return m
}

// cpuShareName and allocsName name a bucket's two host metrics:
// "ccdb" -> "ccdb.cpu_share", "runtime.gc" -> "runtime.gc_cpu_share".
func cpuShareName(bucket string) string { return bucketPrefix(bucket) + "cpu_share" }
func allocsName(bucket string) string   { return bucketPrefix(bucket) + "allocs_per_op" }

func bucketPrefix(bucket string) string {
	if strings.HasPrefix(bucket, "runtime.") {
		return bucket + "_"
	}
	return bucket + "."
}

// value is one reported number. Host metrics are the median over the
// measured repetitions and carry their spread; simulated ones repeat
// exactly and carry the sample count behind them.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Host    bool      `json:"host"`
	Samples int       `json:"samples"`
	Min     float64   `json:"min,omitempty"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Max     float64   `json:"max,omitempty"`
	Reps    []float64 `json:"reps,omitempty"`
}

// hostValue is the median of a host metric's per-repetition values,
// with their spread.
func hostValue(reps []float64) value {
	q1, _, q3 := quartiles(reps)
	lo, hi := minMax(reps)
	return value{Value: median(reps), Samples: len(reps), Min: lo, Q1: q1, Q3: q3, Max: hi, Reps: reps}
}

// simulated returns every simulated number of one repetition by
// name: the end-to-end ones and the untraced per-layer ones. It is the
// input of the digest.
func (r *rep) simulated() map[string]float64 {
	r.reads.sort()
	r.writes.sort()
	primary := r.primary()
	tailPct, tail := primary.tail()
	okFrac := 1.0
	if r.attempted > 0 {
		okFrac = 1 - float64(r.failed)/float64(r.attempted)
	}
	_, readTail := r.reads.tail()
	_, writeTail := r.writes.tail()
	c := r.ctr
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	s := map[string]float64{
		"sim_mb_per_s":     float64(r.bytes) / 1e6 / r.seconds,
		"sim_p50_ms":       primary.percentile(50),
		"sim_tail_ms":      tail,
		"sim_ok_frac":      okFrac,
		"sim_write_amp":    r.writeAmp,
		"sim_slo_rate_ops": r.sloRate,

		"sim.events":        float64(r.events),
		"sim.events_per_op": ratio(float64(r.events), float64(r.ops)),
		"sim.envs":          1, // every repetition is one simulation

		"core.read_mb":         c["core.read_bytes"] / 1e6,
		"core.write_mb":        c["core.write_bytes"] / 1e6,
		"core.erase_mb":        c["core.erase_bytes"] / 1e6,
		"core.read_mb_per_s":   c["core.read_bytes"] / 1e6 / r.seconds,
		"core.write_mb_per_s":  c["core.write_bytes"] / 1e6 / r.seconds,
		"client.ops":           float64(r.ops),
		"client.read_samples":  float64(len(r.reads)),
		"client.write_samples": float64(len(r.writes)),
		"client.tail_pct":      float64(tailPct),
		"client.read_p50_ms":   r.reads.percentile(50),
		"client.read_tail_ms":  readTail,
		"client.write_p50_ms":  r.writes.percentile(50),
		"client.write_tail_ms": writeTail,
		"sim_paper_err_pct":    r.paperErrPct,

		"blocklayer.inline_erase_frac": ratio(c["blocklayer.inline_erases"], c["blocklayer.inline_erases"]+c["blocklayer.background_erases"]),
		"ccdb.mem_hit_frac":            ratio(c["ccdb.gets_from_mem"], c["ccdb.gets"]),
		"ccdb.write_amp":               ratio(c["core.write_bytes"], float64(r.putBytes)),
		"cluster.hedge_frac":           ratio(c["cluster.hedges"], c["cluster.gets"]),
	}
	for _, def := range perLayer {
		if _, done := s[def.Name]; done || def.Host {
			continue
		}
		if v, ok := c[def.Name]; ok { // plain additive counters
			s[def.Name] = v
		} else if v, ok := r.extra[def.Name]; ok {
			s[def.Name] = v
		}
	}
	return s
}

// printLedger writes every metric by name with unit, sample count and
// direction.
func printLedger(w io.Writer, title string, defs []metricDef, vals map[string]value) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "  %-34s %14s %-9s %-7s %-5s %8s  %s\n", "metric", "value", "unit", "better", "kind", "samples", "spread (host: min q1 q3 max)")
	for _, def := range defs {
		v, ok := vals[def.Name]
		if !ok {
			continue
		}
		kind := "sim"
		spread := ""
		if v.Host {
			kind = "host"
			if v.Samples > 1 {
				spread = fmt.Sprintf("%.4g %.4g %.4g %.4g", v.Min, v.Q1, v.Q3, v.Max)
			}
		}
		fmt.Fprintf(w, "  %-34s %14s %-9s %-7s %-5s %8d  %s\n", def.Name, fmtNum(v.Value), v.Unit, v.Better, kind, v.Samples, spread)
	}
}

func fmtNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}
