package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/cluster"
	"sdf/internal/coord"
	"sdf/internal/core"
	"sdf/internal/metrics"
	"sdf/internal/rpcnet"
	"sdf/internal/sim"
)

// cluster-mixed: open loop, the SDF-coordinated CoDesign stack — 3
// replicas on 12-channel devices, coord erase windows, SLO-driven
// write admission, hedged deadline reads, and a live metrics registry
// + SLO engine (they are in the control loop). 4 paced 8 KB readers
// and one hot-keyset 64 KB writer. Every repetition simulates rate r2;
// r1 and r3 are simulated once per run for the rate ladder.
const (
	cmReaders     = 4
	cmDrain       = time.Second // after the horizon, for in-flight requests
	cmHotKeys     = 48          // 64 KB objects the writer keeps overwriting
	cmObjSize     = 8 << 10
	cmHotSize     = 64 << 10
	cmHotReadOneN = 8 // one read in cmHotReadOneN targets a hot key
	cmWritePeriod = 30 * time.Millisecond

	cmReadDeadline = 6 * time.Millisecond  // the group's hedging deadline; it does not abort a read
	cmReadBudget   = 20 * time.Millisecond // the client's deadline: a read served later than this has failed

	// The limit a read rate must meet: CoDesign's read SLO, nearly no
	// failed reads, and no growing backlog. Shed writes count against
	// sim_ok_frac but do not disqualify a read rate: shedding writes to
	// hold the read SLO is the mechanism under test.
	cmP99LimitMS    = 5.0
	cmFailLimit     = 0.001
	cmBacklogGrowth = 1.5           // in-flight reads at the horizon vs at half horizon...
	cmBacklogFloor  = 2 * cmReaders // ...or this many, whichever is more: single digits are noise
)

// cmReadPeriods are each reader's pacing at the three rates r1 < r2 <
// r3: r2 is 4 readers x 1 kHz as in the full CoDesign experiment and
// r1 half of it; both meet the limit with headroom. r3 is 5 x r2: at
// the commit that froze it, 2 x and 4 x r2 still met or straddled the
// 5 ms p99 across seeds (the read tail there is set by compaction
// program bursts, not by load), while 5 x misses it on every seed
// without collapsing the queue.
var cmReadPeriods = [3]time.Duration{2 * time.Millisecond, time.Millisecond, 200 * time.Microsecond}

// cmResult is one rate's outcome.
type cmResult struct {
	rate              float64 // offered reads per simulated second
	reads, writes     latencies
	attempted, failed int64
	readsAttempted    int64
	readsFailed       int64
	ops               int64
	bytes             int64
	putBytes          int64 // user bytes put in the measured phase x replicas
	seconds           float64
	inflightHalf      int
	inflightEnd       int
	lateMax           time.Duration
	writeAmp          float64
}

// meets applies the limit to one rate's outcome.
func (c *cmResult) meets() bool {
	p99 := c.reads.percentile(99)
	return p99 > 0 && p99 <= cmP99LimitMS &&
		float64(c.readsFailed) <= cmFailLimit*float64(c.readsAttempted) &&
		float64(c.inflightEnd) <= cmBacklogGrowth*float64(max(c.inflightHalf, cmBacklogFloor))
}

// runClusterLadder is cluster-mixed's once-per-run step: the r1 and r3
// simulations, whose only use is the rate ladder. Simulated results
// repeat exactly, so once is enough; keeping them out of the
// repetitions keeps the host metrics on one fixed, not overloaded
// simulation (r3's host time varies by +-15 % from one repetition to
// the next).
func runClusterLadder(once *rep) {
	for _, i := range []int{0, 2} {
		// A record of its own: only the outcome and the check failures
		// carry over, not the layer counters.
		r := newRep(once.seed, once.size, probes{})
		res := r.clusterSim(cmReadPeriods[i], once.seed)
		once.ladder[i] = &res
		once.checks = append(once.checks, r.checks...)
	}
}

// runClusterMixed is one repetition: the r2 simulation. The rate
// ladder combines it with the once-per-run r1 and r3.
func runClusterMixed(r *rep) {
	r2 := r.clusterSim(cmReadPeriods[1], r.seed)
	ladder := [3]*cmResult{r.once.ladder[0], &r2, r.once.ladder[2]}
	for i, res := range ladder {
		r.extra[fmt.Sprintf("client.read_p99_ms.r%d", i+1)] = res.reads.percentile(99)
		if res.meets() {
			r.sloRate = res.rate
		}
	}
	r.ops, r.putBytes = r2.ops, r2.putBytes
	r.reads, r.writes = r2.reads, r2.writes
	r.attempted, r.failed = r2.attempted, r2.failed
	r.bytes, r.seconds, r.writeAmp = r2.bytes, r2.seconds, r2.writeAmp
	r.extra["client.late_ms_max"] = ms(r2.lateMax)
	r.extra["client.backlog_growth"] = float64(r2.inflightEnd) / float64(max(r2.inflightHalf, 1))
	r.paperNote = "no published reference: the co-scheduled cluster is this repo's extension of the paper"
}

// clusterSim builds one cluster, preloads it, and drives it at one
// read rate for the horizon.
func (r *rep) clusterSim(readPeriod time.Duration, seed int64) cmResult {
	rng := rand.New(rand.NewSource(seed))
	out := cmResult{rate: float64(cmReaders) / readPeriod.Seconds()}
	var (
		env   *sim.Env
		l     layers
		group *cluster.Group
		net   *rpcnet.Network
		adm   *coord.Admission
		slo   *metrics.SLO
		reg   *metrics.Registry
	)
	const devName = "sdf-coord"
	objKey := func(i int) string { return fmt.Sprintf("obj%03d", i) }
	hotKey := func(i int) string { return fmt.Sprintf("hot%03d", i) }

	r.timed(&r.setup, func() {
		env = sim.NewEnv()
		reg = metrics.NewRegistry()
		devLabel := metrics.L("dev", devName)
		co := coord.New(env, coord.Config{Window: 5 * time.Millisecond, MaxWait: 60 * time.Millisecond, ForceFreeBlocks: 1})
		co.RegisterMetrics(reg, devLabel)
		l.coords = append(l.coords, co)
		adm = coord.NewAdmission(env, coord.DefaultAdmissionConfig(40), func() float64 {
			if slo == nil {
				return 0
			}
			return slo.Burn(devName + "/read_p99")
		})
		adm.RegisterMetrics(reg, devLabel)

		var nodes []*cluster.Node
		for _, name := range []string{"r1", "r2", "r3"} {
			cfg := core.DefaultConfig()
			cfg.Channels = 12
			cfg.Channel.Nand.BlocksPerPlane = 96
			cfg.Channel.Nand.PagesPerBlock = 4
			cfg.Channel.SparePerPlane = 2
			cfg.Channel.PrioritizeReads = true
			dev, err := core.New(env, cfg)
			if err != nil {
				panic(err)
			}
			member := co.Register(name)
			blCfg := blocklayer.DefaultConfig()
			blCfg.StaticWL = true
			blCfg.WearSpreadThreshold = 4
			blCfg.EraseGate = member
			bl := blocklayer.New(env, dev, blCfg)
			sdfStore := ccdb.NewSDFStore(bl)
			slice := ccdb.NewSlice(env, r.traceStore(env, sdfStore),
				ccdb.Config{PatchBytes: sdfStore.BlockSize(), RunsPerTier: 2, Journal: ccdb.NewJournal()})
			nodeLabel := metrics.L("node", name)
			dev.RegisterMetrics(reg, devLabel, nodeLabel)
			bl.RegisterMetrics(reg, devLabel, nodeLabel)
			slice.RegisterMetrics(reg, devLabel, nodeLabel)
			node := cluster.NewNode(env, name, slice)
			node.SetWindow(member)
			nodes = append(nodes, node)
			l.devs = append(l.devs, dev)
			l.bls = append(l.bls, bl)
			l.slices = append(l.slices, slice)
		}
		ccfg := cluster.DefaultConfig()
		ccfg.HedgeAfter = 2 * time.Millisecond
		ccfg.ReadDeadline = cmReadDeadline
		ccfg.Admission = adm
		var err error
		if group, err = cluster.NewGroup(env, ccfg, nodes...); err != nil {
			panic(err)
		}
		group.RegisterMetrics(reg, devLabel)
		l.groups = append(l.groups, group)

		netCfg := rpcnet.DefaultConfig()
		netCfg.RPCOverhead = 20 * time.Microsecond
		netCfg.SubRequestCPU = 10 * time.Microsecond
		netCfg.RequestTimeout = 5 * time.Millisecond
		netCfg.RetryBackoff = time.Millisecond
		netCfg.Seed = rng.Int63()
		net = rpcnet.NewNetwork(env, netCfg)
		net.RegisterMetrics(reg, devLabel)
		l.addNet(net)

		// The preload is a bulk load, not SLO-bound traffic: it
		// bypasses the admission bucket.
		adm.SetBestEffort(true)
		boot := env.Go("bench/preload", func(p *sim.Proc) {
			for i := 0; i < r.size.cmObjKeys+cmHotKeys; i++ {
				key, size := objKey(i), cmObjSize
				if i >= r.size.cmObjKeys {
					key, size = hotKey(i-r.size.cmObjKeys), cmHotSize
				}
				if err := group.Put(p, key, nil, size); err != nil {
					r.failf("preload %s: %v", key, err)
				}
			}
			for _, s := range l.slices {
				if err := s.Flush(p); err != nil {
					r.failf("preload flush: %v", err)
				}
			}
		})
		env.RunUntilDone(boot)
		adm.SetBestEffort(false)
	})

	userBytes := int64(r.size.cmObjKeys*cmObjSize + cmHotKeys*cmHotSize)
	r.measure(env, &l, func() {
		t0 := env.Now()
		end := t0 + r.size.cmHorizon
		slo = metrics.NewSLO(env, reg, 100*time.Millisecond,
			metrics.Objective{Name: devName + "/read_p99", Kind: metrics.QuantileBelow,
				Metric: fmt.Sprintf("cluster_read_latency_seconds{dev=%q}", devName), Q: 0.99,
				Threshold: cmP99LimitMS / 1000, Budget: 0.1},
			metrics.Objective{Name: devName + "/no_lost_reads", Kind: metrics.AlwaysZero,
				Metric: fmt.Sprintf("cluster_lost_reads_total{dev=%q}", devName)})
		slo.SetDeadline(end)

		inflight := 0
		env.Schedule(r.size.cmHorizon/2, func() { out.inflightHalf = inflight })
		env.Schedule(r.size.cmHorizon, func() { out.inflightEnd = inflight })

		// One read, in its own process: the generator never waits for
		// it, so a slow system still receives the full offered load.
		// It is timed from the instant it was due.
		read := func(client *rpcnet.Client, due time.Duration, key string, want int) {
			inflight++
			env.Go("bench/read", func(p *sim.Proc) {
				endOp := r.span(env, p, "client/op")
				endRPC := r.span(env, p, "rpcnet/call")
				parent := p.Span()
				size := 0
				_, err := client.DoBudget(p, 128, []rpcnet.SubRequest{func(sp *sim.Proc) int {
					sp.SetSpan(parent)
					endGet := r.span(env, sp, "cluster/get")
					_, n, err := group.Get(sp, key)
					endGet()
					if err != nil {
						return 0
					}
					size = n
					return n
				}}, cmReadBudget)
				endRPC()
				endOp()
				inflight--
				lat := env.Now() - due
				out.attempted++
				out.readsAttempted++
				failedBefore := out.failed
				switch {
				case err != nil || size == 0:
					out.failed++ // deadline-exhausted RPC or lost read
				case size != want:
					out.failed++
					r.failf("get %s returned size %d, want %d", key, size, want)
				case lat > cmReadBudget:
					out.failed++ // served, but past the client's deadline
				default:
					out.ops++
					out.bytes += int64(size)
				}
				out.readsFailed += out.failed - failedBefore
				if due >= t0+r.size.cmWarmup {
					out.reads = append(out.reads, lat)
				}
			})
		}
		for i := 0; i < cmReaders; i++ {
			client := net.NewClient()
			rrng := rand.New(rand.NewSource(rng.Int63()))
			env.Go("bench/reader", func(p *sim.Proc) {
				for due := t0; due < end; due += readPeriod {
					p.WaitUntil(due)
					if late := env.Now() - due; late > out.lateMax {
						out.lateMax = late
					}
					if rrng.Intn(cmHotReadOneN) == 0 {
						read(client, due, hotKey(rrng.Intn(cmHotKeys)), cmHotSize)
					} else {
						read(client, due, objKey(rrng.Intn(r.size.cmObjKeys)), cmObjSize)
					}
				}
			})
		}
		// The writer overwrites the hot keyset, so compaction keeps
		// merging, freeing patches and feeding the erasers. It is a
		// single paced client that waits for each ack.
		wrng := rand.New(rand.NewSource(rng.Int63()))
		env.Go("bench/writer", func(p *sim.Proc) {
			for env.Now() < end {
				key := hotKey(wrng.Intn(cmHotKeys))
				start := env.Now()
				endOp := r.span(env, p, "client/op")
				endPut := r.span(env, p, "cluster/put")
				err := group.Put(p, key, nil, cmHotSize)
				endPut()
				endOp()
				out.attempted++
				if err != nil {
					out.failed++ // shed by admission control, or a replica failed
				} else {
					out.ops++
					out.bytes += cmHotSize
					out.putBytes += cmHotSize * int64(group.Replicas())
					userBytes += cmHotSize
					if start >= t0+r.size.cmWarmup {
						out.writes = append(out.writes, env.Now()-start)
					}
				}
				p.Wait(cmWritePeriod)
			}
		})
		env.RunUntil(end + cmDrain)
		if inflight != 0 {
			r.failf("%d reads still in flight after the drain", inflight)
		}
		out.seconds = r.size.cmHorizon.Seconds()
	})

	// Read-back: every key, object and hot, must still be served at
	// the size that was put.
	check := env.Go("bench/readback", func(p *sim.Proc) {
		for i := 0; i < r.size.readback; i++ {
			key, want := objKey(rng.Intn(r.size.cmObjKeys)), cmObjSize
			if i%4 == 0 {
				key, want = hotKey(rng.Intn(cmHotKeys)), cmHotSize
			}
			if _, size, err := group.Get(p, key); err != nil || size != want {
				r.failf("read-back %s: size %d err %v, want size %d", key, size, err, want)
			}
		}
	})
	env.RunUntilDone(check)
	out.reads.sort()
	out.writeAmp = l.flashWriteAmp(userBytes, group.Replicas())
	if heap := liveHeapMB(); heap > r.liveHeapMB {
		r.liveHeapMB = heap
	}
	runtime.KeepAlive(group)
	env.Close()
	return out
}
