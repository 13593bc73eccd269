package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/cluster"
	"sdf/internal/core"
	"sdf/internal/fault"
	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/ssd"
)

// DefaultAvailabilityPlan is the fault schedule the availability
// experiment runs when no plan file is supplied: a permanent channel
// death, a firmware-style channel stall, a node crash with restart,
// and a NIC brown-out, spread over a 2 s virtual horizon.
func DefaultAvailabilityPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 1,
		Injections: []fault.Injection{
			{At: 400 * time.Millisecond, Kind: fault.ChannelKill, Target: "r1/chan2"},
			// The hang hits the first replica in read order, so stalled
			// reads exercise the hedge path (HedgeAfter < hang length).
			{At: 700 * time.Millisecond, Kind: fault.ChannelHang, Target: "r1/chan0", Duration: 80 * time.Millisecond},
			// A power cut instead of a clean crash: the restart drives
			// the full remount path (device recovery scan, block-layer
			// rebuild, journal replay) under the chaos plan.
			{At: 900 * time.Millisecond, Kind: fault.Powerloss, Target: "r2", Duration: 300 * time.Millisecond},
			{At: 1500 * time.Millisecond, Kind: fault.LinkDegrade, Target: "r3/nic", Duration: 200 * time.Millisecond, Factor: 0.2},
		},
	}
}

// availHorizon is the virtual length of one availability run. It is
// not scaled by Quick: the fault plan's instants are absolute, so the
// horizon must cover them; Quick instead shrinks the dataset and the
// client count.
const availHorizon = 2 * time.Second

// availWindow is the bandwidth-meter bucket width.
const availWindow = 100 * time.Millisecond

// availResult is one cluster's measured ride through the fault plan.
type availResult struct {
	windows  []float64 // delivered bytes per availWindow bucket
	healthy  float64   // mean window rate before the first fault, bytes/s
	floor    float64   // worst window rate, bytes/s
	tail     float64   // mean rate of the last three windows, bytes/s
	recovery time.Duration
	p99      time.Duration
	stats    cluster.Stats

	// Observability pipeline state, populated when Options.Metrics.
	reg     *metrics.Registry
	sampler *metrics.Sampler
	slo     []metrics.ObjectiveResult
	alerts  int
}

// sloReadP99Threshold is the latency objective the availability runs
// are judged against: p99 of each 100 ms window at or under 1 ms.
// SDF meets it through replica failover; the parity baseline's
// degraded-mode stripe reconstruction (~3 ms per 8 KB read) does not.
const sloReadP99Threshold = 0.001 // seconds

// availObjectives declares the run's SLOs against the dev-labeled
// cluster series.
func availObjectives(devName string) []metrics.Objective {
	sid := func(name string) string { return fmt.Sprintf("%s{dev=%q}", name, devName) }
	return []metrics.Objective{
		// A 10% error budget absorbs the windows where an injected
		// fault is mid-flight (hedged reads wait HedgeAfter = 20 ms
		// before trying the next replica), but not a device that serves
		// degraded reads for the rest of the run.
		{Name: devName + "/read_p99", Kind: metrics.QuantileBelow,
			Metric: sid("cluster_read_latency_seconds"), Q: 0.99,
			Threshold: sloReadP99Threshold, Budget: 0.1},
		{Name: devName + "/no_lost_reads", Kind: metrics.AlwaysZero,
			Metric: sid("cluster_lost_reads_total")},
		// Availability floor: the cluster must keep serving reads at
		// 100/s through every fault window.
		{Name: devName + "/availability", Kind: metrics.RateAbove,
			Metric: sid("cluster_gets_total"), Threshold: 100, Budget: 0.1},
	}
}

// availabilityRun drives one 3-replica cluster through the plan:
// closed-loop readers and a writer run for the horizon while the
// injector fires, then async repairs drain and the meters settle.
func availabilityRun(opts Options, kind deviceKind, pl *fault.Plan) availResult {
	env := opts.newEnv()
	devName := map[deviceKind]string{devSDF: "sdf", devGen3: "gen3"}[kind]
	if opts.Tracer != nil {
		opts.Tracer.SetDev("faults/" + devName)
		env.SetTracer(opts.Tracer)
	}
	inj := fault.NewInjector(env)
	var reg *metrics.Registry
	if opts.Metrics {
		reg = metrics.NewRegistry()
	}
	devLabel := metrics.L("dev", devName)

	var nodes []*cluster.Node
	for _, name := range []string{"r1", "r2", "r3"} {
		labels := []metrics.Label{devLabel, metrics.L("node", name)}
		var node *cluster.Node
		switch kind {
		case devSDF:
			// Full 44-channel geometry (same as the Gen3 profile's
			// channel count) with small erase blocks so the dataset's
			// patches stripe across every channel — a killed channel
			// then takes out a visible slice of one replica.
			cfg := core.DefaultConfig()
			cfg.Channel.Nand.BlocksPerPlane = 24
			cfg.Channel.Nand.PagesPerBlock = 16
			cfg.Channel.SparePerPlane = 2
			// Fan-in high enough that the preloaded dataset never
			// compacts during the horizon: compaction rewrites every
			// patch with fresh placement, which would quietly move the
			// data off the channels the fault plan targets.
			r, err := ccdb.NewSDFReplica(env, cfg, blocklayer.DefaultConfig(), ccdb.Config{RunsPerTier: 64})
			if err != nil {
				panic(err)
			}
			r.Dev.RegisterMetrics(reg, labels...)
			r.Layer.RegisterMetrics(reg, labels...)
			// A powerloss injection against this node halts the journal
			// and freezes the media mid-operation; the restart then runs
			// the full remount path — device recovery scan, block-layer
			// rebuild, journal replay — inside the measured run.
			node = cluster.NewSDFNode(env, name, r)
		case devGen3:
			// The conventional baseline masks channel-level faults with
			// internal parity, and pays the masking's real price: a
			// killed or hung channel puts its parity group into degraded
			// mode, where every read of a page stored there rebuilds
			// from the surviving stripe peers (fault.AttachSSD). The
			// device also runs in Figure 8's regime — warm-filled near
			// capacity, so flush traffic keeps background GC live under
			// the host reads. SDF pays neither tax by design: no parity
			// to rebuild from, no device GC to collide with.
			node = cluster.NewNode(env, name, newGen3Slice(env, inj, reg, name, labels))
		}
		node.Slice.RegisterMetrics(reg, labels...)
		nodes = append(nodes, node)
	}
	group, err := cluster.NewGroup(env, cluster.DefaultConfig(), nodes...)
	if err != nil {
		panic(err)
	}
	fault.AttachGroup(inj, group)
	group.RegisterMetrics(reg, devLabel)
	inj.RegisterMetrics(reg, devLabel)

	// Enough page-sized values that the flushed patches cover every
	// channel.
	nKeys, nReaders := 1536, 4
	if opts.Quick {
		nKeys, nReaders = 768, 2
	}
	keys := preload(env, group, nKeys)

	// The measured run starts after the preload settles: plan times and
	// bandwidth windows are both relative to t0 (Arm schedules
	// injections at their offsets from now).
	t0 := env.Now()
	if err := inj.Arm(pl); err != nil {
		panic(err)
	}
	// The observability pipeline starts with the measured run, not the
	// preload: sample instants and SLO windows are then at fixed
	// offsets from t0, byte-identical across seeded reruns.
	var sampler *metrics.Sampler
	var slo *metrics.SLO
	if opts.Metrics {
		sampler = metrics.NewSampler(env, reg, 10*time.Millisecond, 0)
		slo = metrics.NewSLO(env, reg, availWindow, availObjectives(devName)...)
		slo.SetDeadline(t0 + availHorizon)
	}
	nWindows := int(availHorizon / availWindow)
	windows := make([]float64, nWindows)
	var latencies []time.Duration
	for r := 0; r < nReaders; r++ {
		rng := rand.New(rand.NewSource(int64(100 + r)))
		env.Go("reader", func(p *sim.Proc) {
			for env.Now() < t0+availHorizon {
				key := keys[rng.Intn(len(keys))]
				start := env.Now()
				_, size, err := group.Get(p, key)
				if err != nil {
					// The no_lost_reads objective counts these; keep
					// looping so one failure can't stall the meter.
					continue
				}
				latencies = append(latencies, env.Now()-start)
				if w := int((start - t0) / availWindow); w < nWindows {
					windows[w] += float64(size)
				}
			}
		})
	}
	// One writer stream keeps divergence/repair paths warm during the
	// faults (puts against a crashed node mark keys dirty).
	wseq := 0
	env.Go("writer", func(p *sim.Proc) {
		for env.Now() < t0+availHorizon {
			key := fmt.Sprintf("live%04d", wseq)
			wseq++
			group.Put(p, key, nil, pageValueSize)
			p.Wait(25 * time.Millisecond)
		}
	})

	// Drain reverts, repairs, and re-replication with a bounded horizon:
	// the conventional-SSD baseline runs periodic maintenance loops that
	// never go idle, so a run-until-quiescent drain would not return.
	env.RunUntil(t0 + availHorizon + 2*time.Second)
	res := availResult{stats: group.Stats()}
	if opts.Metrics {
		res.reg = reg
		res.sampler = sampler
		res.slo = slo.Report()
		res.alerts = len(slo.Alerts())
	}

	perSec := func(bytes float64) float64 { return bytes / availWindow.Seconds() }
	firstFault := availHorizon
	lastFaultEnd := time.Duration(0)
	for _, in := range pl.Injections {
		if in.At < firstFault {
			firstFault = in.At
		}
		if end := in.At + in.Duration; end > lastFaultEnd {
			lastFaultEnd = end
		}
	}
	res.windows = windows
	res.floor = -1
	var healthySum float64
	healthyN := 0
	for w, b := range windows {
		start := time.Duration(w) * availWindow
		if start+availWindow <= firstFault && w > 0 { // skip the cold-start window
			healthySum += b
			healthyN++
		}
		if res.floor < 0 || perSec(b) < res.floor {
			res.floor = perSec(b)
		}
	}
	if healthyN > 0 {
		res.healthy = perSec(healthySum / float64(healthyN))
	}
	tailN := 3
	if tailN > nWindows {
		tailN = nWindows
	}
	var tailSum float64
	for _, b := range windows[nWindows-tailN:] {
		tailSum += b
	}
	res.tail = perSec(tailSum / float64(tailN))

	// Recovery: virtual time from the end of the last fault until the
	// first window whose delivered rate is back within 5% of the
	// degraded-capacity steady state (the tail mean).
	res.recovery = -1
	for w := 0; w < nWindows; w++ {
		start := time.Duration(w) * availWindow
		if start+availWindow <= lastFaultEnd {
			continue
		}
		if perSec(windows[w]) >= 0.95*res.tail {
			res.recovery = start + availWindow - lastFaultEnd
			break
		}
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) > 0 {
		res.p99 = latencies[len(latencies)*99/100]
	}
	env.Close()
	return res
}

// newGen3Slice builds one replica of the parity-protected Gen3
// baseline: a Figure 8-style drive, warm-filled to capacity, attached
// to inj under name and registered in reg, with a slice of 1 MB
// patches over it.
func newGen3Slice(env *sim.Env, inj *fault.Injector, reg *metrics.Registry, name string, labels []metrics.Label) *ccdb.Slice {
	prof := ssd.HuaweiGen3(0.25).ScaleBlocks(12)
	prof.BufferBytes = 8 << 20
	dev := newSSD(env, prof)
	if err := dev.WarmFillRandom(1.0, 7); err != nil {
		panic(err)
	}
	fault.AttachSSD(inj, name, dev)
	dev.RegisterMetrics(reg, labels...)
	return ccdb.NewSlice(env, ccdb.NewSSDStore(dev, 1<<20), ccdb.Config{PatchBytes: 1 << 20, RunsPerTier: 4})
}

// pageValueSize is the size of the availability runs' values: one
// flash page, the paper's latency-SLO regime, where SDF serves one
// channel-level page read while a degraded Gen3 read of the same size
// rebuilds a whole parity stripe.
const pageValueSize = 8 << 10

// preload puts nKeys values through the group, then flushes every
// replica's memtable so reads exercise the flash path the faults will
// hit. It returns the keys.
func preload(env *sim.Env, group *cluster.Group, nKeys int) []string {
	keys := make([]string, nKeys)
	boot := env.Go("preload", func(p *sim.Proc) {
		for i := range keys {
			keys[i] = fmt.Sprintf("obj%03d", i)
			if err := group.Put(p, keys[i], nil, pageValueSize); err != nil {
				panic(err)
			}
		}
		for _, node := range group.Nodes() {
			if err := node.Slice.Flush(p); err != nil {
				panic(err)
			}
		}
	})
	env.RunUntilDone(boot)
	return keys
}

// sloCell formats one objective's verdict from a report as a table
// cell.
func sloCell(rep []metrics.ObjectiveResult, name string) string {
	for _, o := range rep {
		if o.Name == name {
			verdict := "met"
			if !o.Met {
				verdict = "VIOLATED"
			}
			return fmt.Sprintf("%s (%d/%d windows, burn %.0f%%)", verdict, o.Violations, o.Windows, o.Burn*100)
		}
	}
	return "not evaluated"
}

// burnOf extracts one objective's final burn from a report.
func burnOf(rep []metrics.ObjectiveResult, name string) float64 {
	for _, o := range rep {
		if o.Name == name {
			return o.Burn
		}
	}
	return 0
}

// Faults regenerates the availability experiment the paper's design
// implies but never plots: SDF drops cross-channel parity and relies
// on CCDB's 3-way replication for fault tolerance (§2.2), so the
// system — not the device — must ride out channel deaths, firmware
// stalls, node crashes, and NIC brown-outs. A fault plan (the default
// above, or one supplied via Options.FaultPlan / sdfbench -faults)
// fires against a 3-replica cluster under closed-loop load; the same
// node-level faults hit a parity-protected Gen3 baseline, whose
// internal redundancy masks channel faults but taxes every byte.
func Faults(opts Options) Table {
	pl := opts.FaultPlan
	if pl == nil {
		pl = DefaultAvailabilityPlan()
	}
	t := Table{
		ID:     "Faults",
		Title:  "Availability under injected faults: 3-way replication vs device parity",
		Header: []string{"Metric", "Baidu SDF (no parity, RF=3)", "Huawei Gen3 (parity, RF=3)"},
		Notes: []string{
			fmt.Sprintf("plan: seed %d, %d injections over %v (channel faults fail SDF over to replicas; Gen3 parity masks them at reconstruction cost)",
				pl.Seed, len(pl.Injections), availHorizon),
			"recovery = virtual time from last fault end until delivered bandwidth holds within 5% of the degraded steady state",
			"page-sized (8 KB) reads are the latency-SLO regime: SDF serves one channel page read, while a degraded Gen3 read rebuilds a parity stripe from the surviving channels",
		},
	}
	sdf := availabilityRun(opts, devSDF, pl)
	gen3 := availabilityRun(opts, devGen3, pl)

	dur := func(d time.Duration) string {
		if d < 0 {
			return "not recovered"
		}
		return d.String()
	}
	rows := []struct {
		label   string
		sdf, g3 string
		key     string
		vs, vg  float64
	}{
		{"healthy bandwidth", mb(sdf.healthy), mb(gen3.healthy), "healthy_bw", sdf.healthy, gen3.healthy},
		{"worst window", mb(sdf.floor), mb(gen3.floor), "floor_bw", sdf.floor, gen3.floor},
		{"steady state after faults", mb(sdf.tail), mb(gen3.tail), "tail_bw", sdf.tail, gen3.tail},
		{"recovery after last fault", dur(sdf.recovery), dur(gen3.recovery), "recovery_ms", float64(sdf.recovery.Milliseconds()), float64(gen3.recovery.Milliseconds())},
		{"read p99", sdf.p99.String(), gen3.p99.String(), "p99_ms", float64(sdf.p99.Microseconds()) / 1000, float64(gen3.p99.Microseconds()) / 1000},
		{"failovers / hedges", fmt.Sprintf("%d / %d", sdf.stats.Failovers, sdf.stats.Hedges), fmt.Sprintf("%d / %d", gen3.stats.Failovers, gen3.stats.Hedges), "failovers", float64(sdf.stats.Failovers), float64(gen3.stats.Failovers)},
		{"repairs / re-replications", fmt.Sprintf("%d / %d", sdf.stats.Repairs, sdf.stats.Rereplications), fmt.Sprintf("%d / %d", gen3.stats.Repairs, gen3.stats.Rereplications), "repairs", float64(sdf.stats.Repairs), float64(gen3.stats.Repairs)},
		{"lost reads", fmt.Sprintf("%d", sdf.stats.Lost), fmt.Sprintf("%d", gen3.stats.Lost), "lost", float64(sdf.stats.Lost), float64(gen3.stats.Lost)},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.label, r.sdf, r.g3})
		t.metric("sdf."+r.key, r.vs)
		t.metric("gen3."+r.key, r.vg)
	}
	if opts.Metrics {
		t.Rows = append(t.Rows, []string{"SLO: window p99 <= 1ms",
			sloCell(sdf.slo, "sdf/read_p99"), sloCell(gen3.slo, "gen3/read_p99")})
		t.metric("sdf.slo_p99_burn", burnOf(sdf.slo, "sdf/read_p99"))
		t.metric("gen3.slo_p99_burn", burnOf(gen3.slo, "gen3/read_p99"))
		snapshot := metrics.Snapshot(sdf.reg, gen3.reg)
		series := metrics.SeriesJSONL(sdf.sampler, gen3.sampler)
		t.Observability = &Observability{
			SnapshotSHA256: metrics.HashBytes(snapshot),
			SeriesSHA256:   metrics.HashBytes(series),
			SLO:            append(append([]metrics.ObjectiveResult(nil), sdf.slo...), gen3.slo...),
			Alerts:         sdf.alerts + gen3.alerts,
			Snapshot:       snapshot,
			Series:         series,
		}
	}
	return t
}
