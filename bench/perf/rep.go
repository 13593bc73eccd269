package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/cluster"
	"sdf/internal/coord"
	"sdf/internal/core"
	"sdf/internal/metrics"
	"sdf/internal/rpcnet"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// rep is the record of one repetition of one workload: what it cost
// the host, and what the simulated system did. A workload's run
// function fills it in.
type rep struct {
	seed int64
	size sizing
	probes

	// Host cost. setup is build + preload up to the first client op;
	// measured is first client op to horizon drained.
	setup, measured hostCost
	liveHeapMB      float64
	// speed is the machine's speed around this repetition relative to
	// the reference (calibrate.go); its host seconds are reported times
	// it.
	speed float64

	// Simulated results.
	events       uint64  // scheduler events dispatched in the measured phase
	seconds      float64 // simulated length of the measured phase
	bytes        int64   // client payload bytes moved in it
	ops          int64   // client requests completed in it
	putBytes     int64   // user bytes put in it, times the replication factor
	attempted    int64
	failed       int64
	reads        latencies // requests that started after the warm-up instant
	writes       latencies
	primaryWrite bool    // the workload's primary request class is the write
	writeAmp     float64 // flash bytes programmed / (user bytes put x replicas), whole simulation
	sloRate      float64 // requests per simulated second sustained within the limit
	paperErrPct  float64 // mean |sim - paper| / paper over the reference points; 0 when the paper has none
	paperNote    string
	extra        map[string]float64 // workload-specific simulated values (client.read_p99_ms.r1, ...)
	ctr          map[string]float64 // additive per-layer counters, measured-phase deltas

	checks []string // output-check failures; empty means correct

	// once is the record of the run's once-per-run steps (the canaries
	// and, for cluster-mixed, the r1 and r3 simulations), visible to
	// every repetition. ladder is set on that record only.
	once   *rep
	ladder [3]*cmResult
}

// probes are what a per-layer run attaches to a repetition's measured
// phase; an end-to-end run attaches none.
type probes struct {
	// tr is the collector of traced pass A; nil everywhere else, which
	// keeps all harness spans and the storage decorator out.
	tr *trace.Collector
	// cpu, when non-nil, collects one CPU profile per measured phase
	// (the untraced repetitions of a per-layer run).
	cpu *[][]byte
	// allocs, when non-nil, receives the allocations made in the
	// measured phase by layer (pass B; runtime.MemProfileRate is 1).
	allocs *map[string]float64
}

func newRep(seed int64, size sizing, pr probes) *rep {
	return &rep{seed: seed, size: size, probes: pr,
		extra: map[string]float64{}, ctr: map[string]float64{}}
}

// timed runs fn and charges its host cost to c.
func (r *rep) timed(c *hostCost, fn func()) {
	m := markHost()
	fn()
	c.add(m.elapsed())
}

func (r *rep) failf(format string, args ...any) {
	if len(r.checks) < 20 {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// primary returns the latencies of the workload's primary request
// class, the one sim_p50_ms and sim_tail_ms report.
func (r *rep) primary() latencies {
	if r.primaryWrite {
		return r.writes
	}
	return r.reads
}

func noop() {}

// span opens a harness-owned span under p's current span and makes it
// p's span, so the program's own spans below hang under it. The
// returned func closes it and restores p; call it on every path. With
// no tracer attached (all measured repetitions, and set-up and
// read-back everywhere) it does nothing.
func (r *rep) span(env *sim.Env, p *sim.Proc, name string) func() {
	t := env.Tracer()
	if t == nil {
		return noop
	}
	prev := p.Span()
	id := t.Begin(env.Now(), prev, name, trace.PhaseOp)
	p.SetSpan(id)
	return func() {
		p.SetSpan(prev)
		t.End(env.Now(), id)
	}
}

// layers are the parts of a built stack whose public counters feed the
// per-layer ledger. Workloads append what they build.
type layers struct {
	devs   []*core.Device
	canary []*core.Device // data canaries: only their ECC counters are read
	bls    []*blocklayer.Layer
	slices []*ccdb.Slice
	nets   []*rpcnet.Network
	regs   []*metrics.Registry // registries the nets' call counters were adopted into
	groups []*cluster.Group
	coords []*coord.Coordinator
}

// addNet records a network; its request counter is readable only
// through a registry, so one is attached (adoption is a pointer copy,
// no per-call cost).
func (l *layers) addNet(n *rpcnet.Network) {
	reg := metrics.NewRegistry()
	n.RegisterMetrics(reg)
	l.nets = append(l.nets, n)
	l.regs = append(l.regs, reg)
}

// counters reads every additive layer counter.
func (l *layers) counters() map[string]float64 {
	c := map[string]float64{}
	for _, d := range l.devs {
		rd, wr, er := d.Counters()
		c["core.read_bytes"] += float64(rd)
		c["core.write_bytes"] += float64(wr)
		c["core.erase_bytes"] += float64(er) * float64(d.BlockSize())
	}
	for _, d := range append(append([]*core.Device(nil), l.devs...), l.canary...) {
		for i := 0; i < d.Channels(); i++ {
			ch := d.Channel(i)
			corrected, failures := ch.ECCStats()
			c["flashchan.ecc_corrected"] += float64(corrected)
			c["flashchan.ecc_failures"] += float64(failures)
			c["flashchan.dead_rejects"] += float64(ch.DeadRejects())
		}
	}
	for _, b := range l.bls {
		w, rd, inline, bg := b.Stats()
		q, retries, _ := b.HealthStats()
		mig, _ := b.WearLevelStats()
		c["blocklayer.writes"] += float64(w)
		c["blocklayer.reads"] += float64(rd)
		c["blocklayer.inline_erases"] += float64(inline)
		c["blocklayer.background_erases"] += float64(bg)
		c["blocklayer.read_retries"] += float64(retries)
		c["blocklayer.quarantines"] += float64(q)
		c["blocklayer.wl_migrations"] += float64(mig)
	}
	for _, s := range l.slices {
		st := s.Stats()
		c["ccdb.puts"] += float64(st.Puts)
		c["ccdb.gets"] += float64(st.Gets)
		c["ccdb.gets_from_mem"] += float64(st.GetsFromMem)
		c["ccdb.flushes"] += float64(st.Flushes)
		c["ccdb.compactions"] += float64(st.Compactions)
		c["ccdb.patches_written"] += float64(st.PatchesWritten)
		c["ccdb.patches_freed"] += float64(st.PatchesFreed)
		c["ccdb.compaction_reads"] += float64(st.CompactionReads)
	}
	for i, n := range l.nets {
		drops, retries, deadlines := n.Stats()
		c["rpcnet.calls"] += float64(l.regs[i].Get("rpc_calls_total").Counter.Value())
		c["rpcnet.drops"] += float64(drops)
		c["rpcnet.retries"] += float64(retries)
		c["rpcnet.deadlines"] += float64(deadlines)
	}
	for _, g := range l.groups {
		st := g.Stats()
		c["cluster.gets"] += float64(st.Gets)
		c["cluster.puts"] += float64(st.Puts)
		c["cluster.hedges"] += float64(st.Hedges)
		c["cluster.failovers"] += float64(st.Failovers)
		c["cluster.lost"] += float64(st.Lost)
		c["cluster.repairs"] += float64(st.Repairs)
		c["cluster.window_deprioritized_reads"] += float64(st.WindowDeprioritizedReads)
		c["cluster.delayed_writes"] += float64(st.DelayedWrites)
		c["cluster.shed_writes"] += float64(st.ShedWrites)
	}
	for _, co := range l.coords {
		st := co.Stats()
		c["coord.grants"] += float64(st.Grants)
		c["coord.deferrals"] += float64(st.Deferrals)
		c["coord.forced"] += float64(st.Forced)
		c["coord.timeouts"] += float64(st.Timeouts)
	}
	return c
}

// addDelta adds (after - before) of every counter into r.ctr.
func (r *rep) addDelta(before, after map[string]float64) {
	for k, v := range after {
		r.ctr[k] += v - before[k]
	}
}

// measure runs the measured phase of one simulation: it charges host
// cost and scheduler events to the repetition and records the layer
// counters' deltas across it. In pass A the collector is attached for
// exactly this phase, so set-up and read-back leave no spans.
func (r *rep) measure(env *sim.Env, l *layers, fn func()) {
	before := l.counters()
	ev0 := env.Events()
	env.SetTracer(r.tr)
	switch {
	case r.cpu != nil:
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			r.failf("cpu profile: %v", err)
		}
		r.timed(&r.measured, fn)
		pprof.StopCPUProfile()
		*r.cpu = append(*r.cpu, buf.Bytes())
	case r.allocs != nil:
		before := snapAllocs()
		r.timed(&r.measured, fn)
		*r.allocs = allocsByLayer(before, snapAllocs())
	default:
		r.timed(&r.measured, fn)
	}
	env.SetTracer(nil)
	r.events += env.Events() - ev0
	r.addDelta(before, l.counters())
}

// flashWriteAmp is flash bytes programmed per user byte put, over the
// devices' whole life (preload included).
func (l *layers) flashWriteAmp(userBytes int64, replicas int) float64 {
	var programmed int64
	for _, d := range l.devs {
		_, wr, _ := d.Counters()
		programmed += wr
	}
	if userBytes <= 0 {
		return 0
	}
	return float64(programmed) / (float64(userBytes) * float64(replicas))
}

// digest is the SHA-256 of every simulated value, in name order with
// exact float bits: two runs agree on it iff they simulated the same
// thing.
func digest(simulated map[string]float64) string {
	names := make([]string, 0, len(simulated))
	for k := range simulated {
		names = append(names, k)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, k := range names {
		fmt.Fprintf(h, "%s=%016x\n", k, math.Float64bits(simulated[k]))
	}
	return hex.EncodeToString(h.Sum(nil))
}
