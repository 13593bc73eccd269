package experiments

import (
	"fmt"
	"slices"
	"time"

	"sdf/internal/ccdb"
	"sdf/internal/cluster"
	"sdf/internal/core"
	"sdf/internal/fault"
	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/ssd"
)

// replicaRun drives one replica-group run — SDF's fault tolerance at
// system level (§2.2: 3-way replication, no cross-channel parity) —
// for faults and codesign. It owns a traced env, an injector and a
// registry labelled dev=<dev>. The caller adds the replicas, joins
// them, preloads, opens the window, runs its own clients (recording
// each read), finishes, and closes env once it has read its counters.
type replicaRun struct {
	dev      string
	env      *sim.Env
	inj      *fault.Injector
	reg      *metrics.Registry
	devLabel metrics.Label
	nodes    []*cluster.Node
	group    *cluster.Group

	t0, end, window time.Duration // end = t0+horizon
	sampler         *metrics.Sampler
	slo             *metrics.SLO
	windows         []float64       // delivered bytes per window from t0
	latencies       []time.Duration // one per completed read
}

// newReplicaRun starts a run whose trace events and metrics carry the
// device label dev (traced as exp/dev).
func newReplicaRun(opts Options, exp, dev string) *replicaRun {
	env := opts.newTracedEnv(exp + "/" + dev)
	return &replicaRun{
		dev:      dev,
		env:      env,
		inj:      fault.NewInjector(env),
		reg:      metrics.NewRegistry(),
		devLabel: metrics.L("dev", dev),
	}
}

// addReplicas adds the group's nodes r1..r3 with their metrics
// registered: the SDF replicas build makes, or for devGen3 replicas of
// the parity Gen3 baseline. A powerloss injection against an SDF node
// runs the full remount path — device recovery scan, block-layer
// rebuild, journal replay — in the run. On a Gen3 node a hung or
// killed channel puts its parity group into degraded mode, where each
// read rebuilds from the stripe peers (fault.AttachSSD), and the drive
// is warm-filled to capacity, so flush traffic keeps GC live under the
// reads (Figure 8's regime). SDF pays neither tax.
func (r *replicaRun) addReplicas(kind deviceKind, build func(name string) (*ccdb.SDFReplica, error)) {
	for _, name := range []string{"r1", "r2", "r3"} {
		labels := []metrics.Label{r.devLabel, metrics.L("node", name)}
		var node *cluster.Node
		if kind == devGen3 {
			prof := ssd.HuaweiGen3(0.25).ScaleBlocks(12)
			prof.BufferBytes = 8 << 20
			dev := newSSD(r.env, prof)
			if err := dev.WarmFillRandom(1.0, 7); err != nil {
				panic(err)
			}
			fault.AttachSSD(r.inj, name, dev)
			dev.RegisterMetrics(r.reg, labels...)
			slice := ccdb.NewSlice(r.env, ccdb.NewSSDStore(dev, 1<<20), ccdb.Config{PatchBytes: 1 << 20, RunsPerTier: 4})
			slice.RegisterMetrics(r.reg, labels...)
			node = cluster.NewNode(r.env, name, slice)
		} else {
			sdf, err := build(name)
			if err != nil {
				panic(err)
			}
			r.registerReplica(sdf, labels)
			node = cluster.NewSDFNode(r.env, name, sdf)
		}
		r.nodes = append(r.nodes, node)
	}
}

// registerReplica registers the metrics of sdf's device, block layer
// and slice so that they read the replica's current objects: Remount
// replaces all three after a power cut, and a series bound to the old
// ones would keep reading a dead stack. Each series forwards to the
// same series of a registry the current objects registered into, built
// again when the device changes. A counter adds what the stacks Remount
// replaced had counted, so it stays monotone across a remount.
func (r *replicaRun) registerReplica(sdf *ccdb.SDFReplica, labels []metrics.Label) {
	var (
		dev  *core.Device
		cur  *metrics.Registry
		base = map[string]int64{}
	)
	current := func() *metrics.Registry {
		if sdf.Dev != dev {
			cur.Each(func(in *metrics.Instrument) {
				if in.Kind == metrics.KindCounter {
					base[in.ID()] += in.Counter.Value()
				}
			})
			dev, cur = sdf.Dev, metrics.NewRegistry()
			sdf.Dev.RegisterMetrics(cur, labels...)
			sdf.Layer.RegisterMetrics(cur, labels...)
			sdf.Slice.RegisterMetrics(cur, labels...)
		}
		return cur
	}
	current().Each(func(in *metrics.Instrument) {
		id := in.ID()
		switch in.Kind {
		case metrics.KindCounter:
			r.reg.CounterFunc(in.Name, func() int64 {
				n := current().Get(id).Counter.Value()
				return base[id] + n
			}, in.Labels...)
		case metrics.KindGauge:
			r.reg.GaugeFunc(in.Name, func() float64 { return current().Get(id).Gauge.Value() }, in.Labels...)
		}
	})
}

// join wires the nodes into one group under cfg, hands it to
// the injector, and registers the group's and the injector's metrics.
func (r *replicaRun) join(cfg cluster.Config) *cluster.Group {
	group, err := cluster.NewGroup(r.env, cfg, r.nodes...)
	if err != nil {
		panic(err)
	}
	fault.AttachGroup(r.inj, group)
	group.RegisterMetrics(r.reg, r.devLabel)
	r.inj.RegisterMetrics(r.reg, r.devLabel)
	r.group = group
	return group
}

// preload puts nKeys page-sized values through the group, then
// flushes every replica's memtable so reads exercise the flash path
// the faults will hit. It returns the keys.
func (r *replicaRun) preload(nKeys int) []string {
	keys := make([]string, nKeys)
	boot := r.env.Go("preload", func(p *sim.Proc) {
		for i := range keys {
			keys[i] = fmt.Sprintf("obj%03d", i)
			if err := r.group.Put(p, keys[i], nil, pageValueSize); err != nil {
				panic(err)
			}
		}
		for _, node := range r.group.Nodes() {
			if err := node.Slice.Flush(p); err != nil {
				panic(err)
			}
		}
	})
	r.env.RunUntilDone(boot)
	return keys
}

// open starts the measured window at t0 = now: it arms pl (if any),
// starts the 10 ms sampler and the SLO engine over objs until
// t0+horizon, and sizes the delivered-bytes windows. Plan, sample and
// SLO instants then sit at fixed offsets from t0.
func (r *replicaRun) open(pl *fault.Plan, horizon, window time.Duration, objs []metrics.Objective) {
	r.t0, r.end, r.window = r.env.Now(), r.env.Now()+horizon, window
	if pl != nil {
		if err := r.inj.Arm(pl); err != nil {
			panic(err)
		}
	}
	r.sampler = metrics.NewSampler(r.env, r.reg, 10*time.Millisecond, 0)
	r.slo = metrics.NewSLO(r.env, r.reg, window, objs...)
	r.slo.SetDeadline(r.end)
	r.windows = make([]float64, int(horizon/window))
}

// record books one completed read that started at start and delivered
// size bytes.
func (r *replicaRun) record(start time.Duration, size int) {
	r.latencies = append(r.latencies, r.env.Now()-start)
	if w := int((start - r.t0) / r.window); w < len(r.windows) {
		r.windows[w] += float64(size)
	}
}

// replicaResult is what every replica-group run measures.
type replicaResult struct {
	windows   []float64 // delivered bytes per window
	floor     float64   // worst window rate, bytes/s
	p99, p999 time.Duration
	reads     int64 // completed reads
	stats     cluster.Stats
	reg       *metrics.Registry
	sampler   *metrics.Sampler
	slo       []metrics.ObjectiveResult
	readP99   metrics.ObjectiveResult // the <dev>/read_p99 verdict
	alerts    int
}

// finish runs the env until drain past the window's end, so repairs
// settle; bounded, since Gen3's maintenance loops never go idle.
func (r *replicaRun) finish(drain time.Duration) replicaResult {
	r.env.RunUntil(r.end + drain)
	res := replicaResult{
		windows: r.windows,
		floor:   -1,
		reads:   int64(len(r.latencies)),
		stats:   r.group.Stats(),
		reg:     r.reg,
		sampler: r.sampler,
		slo:     r.slo.Report(),
		alerts:  len(r.slo.Alerts()),
	}
	for _, o := range res.slo {
		if o.Name == r.dev+"/read_p99" {
			res.readP99 = o
		}
	}
	for _, b := range r.windows {
		if rate := b / r.window.Seconds(); res.floor < 0 || rate < res.floor {
			res.floor = rate
		}
	}
	// Index n*q, not metrics.Series.Percentile's q*(n-1).
	slices.Sort(r.latencies)
	if n := len(r.latencies); n > 0 {
		res.p99, res.p999 = r.latencies[n*99/100], r.latencies[n*999/1000]
	}
	return res
}

// readObjectives are every run's SLOs: window p99 read latency at or
// under p99 seconds, with a 10% error budget for windows where a
// fault is mid-flight, and no lost read.
func readObjectives(dev string, p99 float64) []metrics.Objective {
	return []metrics.Objective{
		{Name: dev + "/read_p99", Kind: metrics.QuantileBelow,
			Metric: devSeries("cluster_read_latency_seconds", dev), Q: 0.99,
			Threshold: p99, Budget: 0.1},
		{Name: dev + "/no_lost_reads", Kind: metrics.AlwaysZero,
			Metric: devSeries("cluster_lost_reads_total", dev)},
	}
}

// sloCell formats an objective's verdict as a table cell.
func sloCell(o metrics.ObjectiveResult) string {
	verdict := "met"
	if !o.Met {
		verdict = "VIOLATED"
	}
	return fmt.Sprintf("%s (%d/%d windows, burn %.0f%%)", verdict, o.Violations, o.Windows, o.Burn*100)
}

// devSeries is the ID of metric name's dev-labelled series.
func devSeries(name, dev string) string { return fmt.Sprintf("%s{dev=%q}", name, dev) }

// observe exports runs, in order, as one Observability payload.
func observe(runs ...replicaResult) *Observability {
	obs := &Observability{}
	var regs []*metrics.Registry
	var samplers []*metrics.Sampler
	for _, r := range runs {
		regs = append(regs, r.reg)
		samplers = append(samplers, r.sampler)
		obs.SLO = append(obs.SLO, r.slo...)
		obs.Alerts += r.alerts
	}
	obs.Snapshot = metrics.Snapshot(regs...)
	obs.Series = metrics.SeriesJSONL(samplers...)
	obs.SnapshotSHA256 = metrics.HashBytes(obs.Snapshot)
	obs.SeriesSHA256 = metrics.HashBytes(obs.Series)
	return obs
}
