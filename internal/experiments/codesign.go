package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/cluster"
	"sdf/internal/coord"
	"sdf/internal/core"
	"sdf/internal/fault"
	"sdf/internal/rpcnet"
	"sdf/internal/sim"
)

// DefaultCoDesignPlan is the chaos schedule the co-design experiment's
// availability stage runs: a firmware-style channel stall on the read
// primary, a packet-loss brown-out on the client network, and an
// overlapping power cut + node crash that leaves the slice on a single
// live replica — the graceful-degradation regime where admission
// control must go best-effort rather than shed the writes durability
// depends on.
func DefaultCoDesignPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 5,
		Injections: []fault.Injection{
			{At: 250 * time.Millisecond, Kind: fault.ChannelHang, Target: "r1/chan0", Duration: 60 * time.Millisecond},
			{At: 500 * time.Millisecond, Kind: fault.PacketLoss, Target: "net", Rate: 0.25, Duration: 200 * time.Millisecond},
			{At: 850 * time.Millisecond, Kind: fault.Powerloss, Target: "r2", Duration: 350 * time.Millisecond},
			{At: 950 * time.Millisecond, Kind: fault.NodeCrash, Target: "r3", Duration: 200 * time.Millisecond},
		},
	}
}

// Co-design run geometry and workload. The horizon is not scaled by
// Quick (the chaos plan's instants are absolute); Quick shrinks the
// dataset and the client count instead.
const (
	codesignHorizon      = 1500 * time.Millisecond
	codesignChaosHorizon = 2 * time.Second
	codesignWindow       = 100 * time.Millisecond
)

// codesignP99SLO is this experiment's read-tail objective: 5 ms,
// not the light-load 1 ms of the faults experiment, because the mixed
// workload's correlated compaction program bursts (1.4 ms a page,
// replicated in lockstep) put a floor under SDF's p99 that no erase
// coordination can remove. 5 ms sits above that floor and below the
// uncoordinated erase-collision tail, so the objective separates the
// two modes: coordination keeps the budget, its absence burns it.
const codesignP99SLO = 0.005

// codesignResult is one cluster's measured ride through the mixed
// read/write workload; its counters exclude the preload.
type codesignResult struct {
	replicaResult
	rpcDeadlines int64
	coord        coord.Stats
	wlMigrations int64
}

// codesignRun drives one 3-replica cluster through the mixed workload:
// open-loop paced readers carry per-read deadlines through the RPC
// layer while a hot-keyset writer keeps compaction — and therefore
// erase pressure — alive. With coordinate set, the replicas share an erase-
// window coordinator (block-layer erases gated, reads routed around
// the replica inside its window) and writes pass SLO admission
// control.
func codesignRun(opts Options, kind deviceKind, coordinate bool, pl *fault.Plan, horizon time.Duration) codesignResult {
	devName := "gen3"
	if kind == devSDF {
		devName = map[bool]string{true: "sdf-coord", false: "sdf-nocoord"}[coordinate]
	}
	run := newReplicaRun(opts, "codesign", devName)
	defer run.env.Close()
	env, reg, devLabel := run.env, run.reg, run.devLabel

	var co *coord.Coordinator
	var adm *coord.Admission
	if coordinate {
		// With three replicas contending continuously, a full window
		// rotation (two peer windows plus drain) runs ~30-40 ms; MaxWait
		// must sit above that so the forced hatch stays an emergency
		// exit, not the steady state.
		co = coord.New(env, coord.Config{
			Window:          5 * time.Millisecond,
			MaxWait:         60 * time.Millisecond,
			ForceFreeBlocks: 1,
		})
		co.RegisterMetrics(reg, devLabel)
		// The writer offers ~33 writes/s; a 40/s bucket admits all of it
		// while the read SLO holds, but burn-scaled throttling (rate/burn,
		// floored at 4/s) bites visibly once the chaos plan sets the
		// error budget on fire. The SLO's burn is the controller's
		// input, so observability here is part of the control loop.
		adm = coord.NewAdmission(env, coord.DefaultAdmissionConfig(40), func() float64 {
			if run.slo == nil {
				return 0
			}
			return run.slo.Burn(devName + "/read_p99")
		})
		adm.RegisterMetrics(reg, devLabel)
		// The preload is a bulk load, not SLO-bound traffic: it
		// bypasses the bucket until t0, so the measured delay/shed
		// counters start from zero there.
		adm.SetBestEffort(true)
	}

	var layers []*blocklayer.Layer
	var members []*coord.Member
	run.addReplicas(kind, func(name string) (*ccdb.SDFReplica, error) {
		// A narrower device than the availability run: 12 channels and
		// 4-page erase blocks. The channel engine is held for a whole
		// command — an erase occupies it ~6 ms (two planes a chip,
		// serial), a block program PagesPerBlock x 1.4 ms — so small
		// blocks keep the program hold (~5.6 ms) just under the erase
		// hold, and the read tail the coordinator can remove
		// (synchronized replica erases) is not drowned out by the tail
		// it cannot.
		cfg := core.DefaultConfig()
		cfg.Channels = 12
		cfg.Channel.Nand.BlocksPerPlane = 96
		cfg.Channel.Nand.PagesPerBlock = 4
		cfg.Channel.SparePerPlane = 2
		// Both SDF modes run the paper's §5 read-over-write scheduling,
		// so queued programs cost a read at most one in-service page;
		// the in-service 3 ms erase is then the tail that only
		// cross-replica coordination can dodge.
		cfg.Channel.PrioritizeReads = true
		blCfg := blocklayer.DefaultConfig()
		// Static WL runs live here (the crash oracle exercises it under
		// power loss too); at this short horizon the wear spread stays
		// narrow, so the migration counter mostly documents that the
		// knob is on, not that media is aging.
		blCfg.StaticWL = true
		blCfg.WearSpreadThreshold = 4
		if co != nil {
			member := co.Register(name)
			blCfg.EraseGate = member
			members = append(members, member)
		}
		// Tight fan-in: two runs per tier keep compaction — and the
		// patch frees that feed the erase backlog — running for the
		// whole horizon.
		r, err := ccdb.NewSDFReplica(env, cfg, blCfg, ccdb.Config{RunsPerTier: 2})
		if err == nil {
			layers = append(layers, r.Layer)
		}
		return r, err
	})
	for i, m := range members {
		run.nodes[i].SetWindow(m)
	}
	ccfg := cluster.DefaultConfig()
	// Deadline-aware read routing: a 6 ms per-read deadline, hedged at
	// 2 ms — slow replicas burn the read's one budget, they do not
	// re-arm it per attempt.
	ccfg.HedgeAfter = 2 * time.Millisecond
	ccfg.ReadDeadline = 6 * time.Millisecond
	ccfg.Admission = adm
	group := run.join(ccfg)

	// The client network: reads arrive as batched RPCs whose loss
	// recovery decrements the read's original deadline budget.
	netCfg := rpcnet.DefaultConfig()
	netCfg.RPCOverhead = 20 * time.Microsecond
	netCfg.SubRequestCPU = 10 * time.Microsecond
	netCfg.RequestTimeout = 5 * time.Millisecond
	netCfg.RetryBackoff = time.Millisecond
	netCfg.Seed = 42
	net := rpcnet.NewNetwork(env, netCfg)
	fault.AttachNetwork(run.inj, "net", net)
	net.RegisterMetrics(reg, devLabel)

	nKeys, nReaders := 768, 4
	if opts.Quick {
		nKeys, nReaders = 384, 2
	}
	keys := run.preload(nKeys)
	if adm != nil {
		adm.SetBestEffort(false)
	}

	// Baselines: measured counters exclude the preload phase.
	preloaded := group.Stats()
	var coordBefore coord.Stats
	if co != nil {
		coordBefore = co.Stats()
	}
	migrations := func() (n int64) {
		for _, l := range layers {
			m, _ := l.WearLevelStats()
			n += m
		}
		return n
	}
	wlBefore := migrations()
	run.open(pl, horizon, codesignWindow, readObjectives(devName, codesignP99SLO))

	// Open-loop readers: each paces at a fixed arrival rate, so the
	// offered read load — and, as long as no mode saturates, the
	// delivered throughput — is identical across the three clusters.
	// The coordination delta then shows up purely in the latency tail.
	const readPeriod = time.Millisecond
	for r := 0; r < nReaders; r++ {
		rng := rand.New(rand.NewSource(int64(200 + r)))
		client := net.NewClient()
		env.Go("reader", func(p *sim.Proc) {
			for next := run.t0; next < run.end; next += readPeriod {
				if now := env.Now(); now < next {
					p.Wait(next - now)
				}
				key := keys[rng.Intn(len(keys))]
				start := env.Now()
				size := 0
				_, err := client.DoBudget(p, 128, []rpcnet.SubRequest{func(wp *sim.Proc) int {
					_, n, err := group.Get(wp, key)
					if err != nil {
						return 0
					}
					size = n
					return n
				}}, 20*time.Millisecond)
				if err != nil || size == 0 {
					continue // deadline-exhausted RPC or lost read
				}
				run.record(start, size)
			}
		})
	}
	// The writer overwrites a hot keyset: every overwrite obsoletes a
	// previous version, so size-tiered compaction continually merges,
	// frees patches, and feeds the background erasers — the write-side
	// pressure co-scheduling exists to keep away from reads.
	const writeSize = 64 << 10
	wseq := 0
	env.Go("writer", func(p *sim.Proc) {
		for env.Now() < run.end {
			key := fmt.Sprintf("hot%03d", wseq%48)
			wseq++
			// Shed and node-down errors are counted by the group; the
			// writer stream itself never stops.
			_ = group.Put(p, key, nil, writeSize)
			p.Wait(30 * time.Millisecond)
		}
	})

	res := codesignResult{replicaResult: run.finish(time.Second)}
	res.stats.Puts -= preloaded.Puts
	res.stats.Gets -= preloaded.Gets
	if co != nil {
		res.coord = co.Stats()
		res.coord.Grants -= coordBefore.Grants
		res.coord.Deferrals -= coordBefore.Deferrals
		res.coord.Forced -= coordBefore.Forced
		res.coord.Timeouts -= coordBefore.Timeouts
	}
	res.wlMigrations = migrations() - wlBefore
	_, _, res.rpcDeadlines = net.Stats()
	return res
}

// CoDesign measures what the erase/write co-scheduler buys: the same
// mixed read/write workload runs against SDF with coordination on
// (erase windows + deadline routing + SLO admission control), SDF with
// coordination off, and the parity Gen3 baseline; then the coordinated
// cluster rides the chaos plan to show graceful degradation — down to
// one live replica, admission goes best-effort and no acknowledged
// data is lost.
func CoDesign(opts Options) Table {
	pl := opts.FaultPlan
	if pl == nil {
		pl = DefaultCoDesignPlan()
	}
	t := Table{
		ID:     "CoDesign",
		Title:  "Deadline-aware erase/write co-scheduling: read tail under mixed load",
		Header: []string{"Metric", "SDF coordinated", "SDF uncoordinated", "Gen3 parity"},
		Notes: []string{
			"coordination = per-slice erase windows (at most one replica erasing), reads routed around the window holder, writes behind SLO admission control",
			"identical workload and deadline config across the three clusters; the only delta is the coordinator",
			fmt.Sprintf("chaos stage: seed %d, %d injections over %v against the coordinated cluster — overlapping node-down windows force best-effort admission",
				pl.Seed, len(pl.Injections), codesignChaosHorizon),
		},
	}
	coordRes := codesignRun(opts, devSDF, true, nil, codesignHorizon)
	nocoord := codesignRun(opts, devSDF, false, nil, codesignHorizon)
	gen3 := codesignRun(opts, devGen3, false, nil, codesignHorizon)

	perSec := func(n int64) float64 { return float64(n) / codesignHorizon.Seconds() }
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	rows := []struct {
		label      string
		c, n, g    string
		key        string
		vc, vn, vg float64
	}{
		{"read p99", coordRes.p99.String(), nocoord.p99.String(), gen3.p99.String(),
			"p99_ms", ms(coordRes.p99), ms(nocoord.p99), ms(gen3.p99)},
		{"read p999", coordRes.p999.String(), nocoord.p999.String(), gen3.p999.String(),
			"p999_ms", ms(coordRes.p999), ms(nocoord.p999), ms(gen3.p999)},
		{"reads/s", fmt.Sprintf("%.0f", perSec(coordRes.reads)), fmt.Sprintf("%.0f", perSec(nocoord.reads)), fmt.Sprintf("%.0f", perSec(gen3.reads)),
			"reads_per_s", perSec(coordRes.reads), perSec(nocoord.reads), perSec(gen3.reads)},
		{"writes acked/s", fmt.Sprintf("%.0f", perSec(coordRes.stats.Puts)), fmt.Sprintf("%.0f", perSec(nocoord.stats.Puts)), fmt.Sprintf("%.0f", perSec(gen3.stats.Puts)),
			"writes_per_s", perSec(coordRes.stats.Puts), perSec(nocoord.stats.Puts), perSec(gen3.stats.Puts)},
		{"erase windows granted / deferred / forced",
			fmt.Sprintf("%d / %d / %d", coordRes.coord.Grants, coordRes.coord.Deferrals, coordRes.coord.Forced), "-", "-",
			"window_grants", float64(coordRes.coord.Grants), 0, 0},
		{"reads routed around erase windows", fmt.Sprintf("%d", coordRes.stats.WindowDeprioritizedReads), "-", "-",
			"window_deprioritized", float64(coordRes.stats.WindowDeprioritizedReads), 0, 0},
		{"writes delayed / shed by admission",
			fmt.Sprintf("%d / %d", coordRes.stats.DelayedWrites, coordRes.stats.ShedWrites), "-", "-",
			"delayed_writes", float64(coordRes.stats.DelayedWrites), 0, 0},
		{"static WL migrations", fmt.Sprintf("%d", coordRes.wlMigrations), fmt.Sprintf("%d", nocoord.wlMigrations), "-",
			"static_wl_migrations", float64(coordRes.wlMigrations), float64(nocoord.wlMigrations), 0},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.label, r.c, r.n, r.g})
		t.metric("coord."+r.key, r.vc)
		t.metric("nocoord."+r.key, r.vn)
		t.metric("gen3."+r.key, r.vg)
	}
	t.metric("coord.deferred", float64(coordRes.coord.Deferrals))
	t.metric("coord.forced", float64(coordRes.coord.Forced))
	t.metric("coord.shed_writes", float64(coordRes.stats.ShedWrites))
	t.Rows = append(t.Rows, []string{"SLO: window p99 <= 5ms",
		sloCell(coordRes.readP99), sloCell(nocoord.readP99), sloCell(gen3.readP99)})
	t.metric("coord.slo_p99_burn", coordRes.readP99.Burn)
	t.metric("nocoord.slo_p99_burn", nocoord.readP99.Burn)
	t.metric("gen3.slo_p99_burn", gen3.readP99.Burn)

	// Chaos stage: the coordinated cluster under the fault plan — the
	// Figure-9-style availability view, plus the degradation counters.
	chaos := codesignRun(opts, devSDF, true, pl, codesignChaosHorizon)
	t.Rows = append(t.Rows,
		[]string{"chaos: worst delivered window", mb(chaos.floor), "-", "-"},
		[]string{"chaos: lost reads / acked-write loss", fmt.Sprintf("%d", chaos.stats.Lost), "-", "-"},
		[]string{"chaos: best-effort / delayed / shed writes",
			fmt.Sprintf("%d / %d / %d", chaos.stats.BestEffortWrites, chaos.stats.DelayedWrites, chaos.stats.ShedWrites), "-", "-"},
		[]string{"chaos: forced erases / remounts / rpc deadline hits",
			fmt.Sprintf("%d / %d / %d", chaos.coord.Forced, chaos.stats.Remounts, chaos.rpcDeadlines), "-", "-"})
	t.metric("chaos.floor", chaos.floor)
	t.metric("chaos.lost", float64(chaos.stats.Lost))
	t.metric("chaos.best_effort", float64(chaos.stats.BestEffortWrites))
	t.metric("chaos.delayed_writes", float64(chaos.stats.DelayedWrites))
	t.metric("chaos.shed", float64(chaos.stats.ShedWrites))
	t.metric("chaos.forced", float64(chaos.coord.Forced))
	t.metric("chaos.remounts", float64(chaos.stats.Remounts))
	t.metric("chaos.rpc_deadline", float64(chaos.rpcDeadlines))
	t.metric("chaos.window_grants", float64(chaos.coord.Grants))
	t.metric("chaos.slo_p99_burn", chaos.readP99.Burn)

	t.Observability = observe(coordRes.replicaResult, nocoord.replicaResult, gen3.replicaResult, chaos.replicaResult)
	return t
}
