package main

import (
	"fmt"
	"runtime"

	"sdf/internal/trace"
)

// report is the result of one run: one workload, one seed, one pass.
type report struct {
	Workload    string           `json:"workload"`
	Why         string           `json:"why"`
	Seed        int64            `json:"seed"`
	Trace       bool             `json:"trace"`
	Reps        int              `json:"reps"`
	MeasuredS   float64          `json:"measured_s"`
	Correct     bool             `json:"correct"`
	Attempted   int64            `json:"attempted"`
	Failed      int64            `json:"failed"`
	Checks      []string         `json:"checks,omitempty"`
	Digest      string           `json:"digest"`
	Speed       float64          `json:"speed"` // median over repetitions of the speed factor their host seconds were scaled by
	PaperErrPct float64          `json:"paper_err_pct"`
	PaperNote   string           `json:"paper_note"`
	EndToEnd    map[string]value `json:"end_to_end,omitempty"`
	PerLayer    map[string]value `json:"per_layer,omitempty"`
}

// minReps is the fewest measured repetitions a run reports medians of.
const minReps = 3

// runProtocol runs one workload under the protocol: strictly
// sequential, the once-per-run steps (canaries, cluster-mixed's rate
// ladder), one discarded warm-up repetition, then measured
// repetitions of the same frozen simulated horizon with the same seed
// and a fresh sim.Env each, until `seconds` of host time are spent
// (at least minReps). Host metrics are medians over the repetitions;
// simulated metrics come from the first and must be identical in all.
// With traced set the untraced repetitions take half the time with
// their measured phases under an in-memory CPU profile, and two more
// follow: pass A (spans) and pass B (allocation profile); none of it
// feeds an end-to-end metric.
func runProtocol(w workloadDef, size sizing, seed int64, seconds float64, traced bool) *report {
	rp := &report{Workload: w.Name, Why: w.Why, Seed: seed, Trace: traced}
	once := newRep(seed, size, probes{})
	runCanary(once)
	if w.once != nil {
		w.once(once)
	}
	rp.Checks = append(rp.Checks, once.checks...)
	run := func(pr probes) *rep {
		runtime.GC()
		r := newRep(seed, size, pr)
		r.once = once
		w.run(r)
		return r
	}
	// Every timed repetition sits between two calibrations (each shared
	// with its neighbour); their mean gives the machine's speed around
	// it.
	lastCal := calibrate()
	one := func(pr probes) *rep {
		r := run(pr)
		cal := calibrate()
		r.speed = calRefS / ((lastCal + cal) / 2)
		lastCal = cal
		return r
	}
	one(probes{}) // warm-up: heap sized, pages faulted in
	// simOf is every simulated number of a repetition, with the
	// canaries' ECC counters (the same for all of them) folded in.
	simOf := func(r *rep) map[string]float64 {
		s := r.simulated()
		for k, v := range once.ctr {
			s[k] += v
		}
		return s
	}

	budget := seconds
	if traced {
		budget = seconds / 2
	}
	var pr probes
	if traced {
		pr.cpu = new([][]byte)
	}
	var reps []*rep
	start := markHost()
	for len(reps) < minReps || start.elapsed().wallS < budget {
		reps = append(reps, one(pr))
	}
	rp.Reps = len(reps)
	rp.MeasuredS = start.elapsed().wallS

	first := reps[0]
	sim := simOf(first)
	rp.Digest = digest(sim)
	rp.Attempted, rp.Failed = first.attempted, first.failed
	rp.PaperErrPct, rp.PaperNote = sim["sim_paper_err_pct"], first.paperNote
	rp.Checks = append(rp.Checks, first.checks...)
	digestOK := true
	for i, r := range reps[1:] {
		if d := digest(simOf(r)); d != rp.Digest {
			digestOK = false
			rp.Checks = append(rp.Checks, fmt.Sprintf("repetition %d simulated digest %s differs from repetition 1's %s", i+2, d[:16], rp.Digest[:16]))
		}
	}

	host := func(f func(r *rep) float64) []float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = f(r)
		}
		return vals
	}
	// Host seconds are speed-normalized, repetition by repetition
	// (calibrate.go).
	rp.Speed = median(host(func(r *rep) float64 { return r.speed }))
	wall := host(func(r *rep) float64 { return r.measured.wallS * r.speed })
	ops := float64(first.ops)

	// special holds the host and traced values by name; every other
	// metric is a simulated value of the first repetition.
	assemble := func(defs []metricDef, special map[string]value) map[string]value {
		out := map[string]value{}
		for _, def := range defs {
			v, ok := special[def.Name]
			if !ok {
				v = value{Value: sim[def.Name], Samples: first.samplesBehind(def.Name)}
			}
			v.Unit, v.Better, v.Host = def.Unit, def.Better, def.Host
			out[def.Name] = v
		}
		return out
	}
	if !traced {
		rp.EndToEnd = assemble(endToEnd, map[string]value{
			"setup_s":            hostValue(host(func(r *rep) float64 { return r.setup.wallS * r.speed })),
			"host_wall_s":        hostValue(wall),
			"host_cpu_s":         hostValue(host(func(r *rep) float64 { return r.measured.cpuS * r.speed })),
			"host_allocs_per_op": hostValue(host(func(r *rep) float64 { return float64(r.measured.mallocs) / ops })),
			"host_live_heap_mb":  hostValue(host(func(r *rep) float64 { return r.liveHeapMB })),
			"sim_digest_ok":      {Value: b2f(digestOK), Samples: len(reps)},
		})
	} else {
		cpu, cpuSamples, err := cpuShares(*pr.cpu)
		if err != nil {
			rp.Checks = append(rp.Checks, err.Error())
		}
		a := passA(w, one)
		b := passB(run)
		for _, p := range []struct {
			name string
			r    *rep
		}{{"pass A", a.r}, {"pass B", b.r}} {
			if d := digest(simOf(p.r)); d != rp.Digest {
				rp.Checks = append(rp.Checks, fmt.Sprintf("%s simulated digest %s differs from the untraced %s", p.name, d[:16], rp.Digest[:16]))
			}
			rp.Checks = append(rp.Checks, p.r.checks...)
		}

		medWall := median(wall)
		special := map[string]value{
			"sim.host_ns_per_event":  hostValue(host(func(r *rep) float64 { return r.measured.wallS * r.speed * 1e9 / float64(r.events) })),
			"runtime.gc_cycles":      hostValue(host(func(r *rep) float64 { return float64(r.measured.gcCycles) })),
			"trace.overhead_frac":    {Value: (a.r.measured.wallS*a.r.speed - medWall) / medWall, Samples: 1},
			"host.speed":             {Value: rp.Speed, Samples: len(reps)},
			"trace.events":           {Value: float64(a.spans.events), Samples: a.spans.events},
			"trace.orphan_span_frac": {Value: float64(a.spans.orphans) / float64(max(a.spans.spans, 1)), Samples: a.spans.spans},
		}
		for _, bucket := range buckets {
			special[cpuShareName(bucket)] = value{Value: cpu[bucket], Samples: cpuSamples}
			special[allocsName(bucket)] = value{Value: b.allocs[bucket] / ops, Samples: int(b.total)}
		}
		for _, layer := range vtLayers {
			special[layer+".vt_self_ms_per_op"] = value{Value: a.spans.selfByLayr[layer] / ops, Samples: a.spans.spans - a.spans.orphans}
		}
		rp.PerLayer = assemble(perLayer, special)
	}
	rp.Correct = len(rp.Checks) == 0
	return rp
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// samplesBehind is the count a simulated metric rests on: latency
// samples for latencies, client requests otherwise.
func (r *rep) samplesBehind(name string) int {
	switch name {
	case "sim_p50_ms", "sim_tail_ms":
		return len(r.primary())
	case "client.read_p50_ms", "client.read_tail_ms":
		return len(r.reads)
	case "client.write_p50_ms", "client.write_tail_ms":
		return len(r.writes)
	}
	return int(r.attempted)
}

// passAResult is traced pass A: one repetition with a trace.Collector
// attached for its measured phase; the harness's spans and storage
// decorator switch on with it.
type passAResult struct {
	r     *rep
	spans spanReport
}

func passA(w workloadDef, one func(probes) *rep) passAResult {
	tr := trace.NewCollector()
	tr.SetDev(w.Name)
	r := one(probes{tr: tr})
	return passAResult{r: r, spans: analyzeSpans(tr.Events())}
}

// passBResult is traced pass B: one untraced, untimed repetition with
// every allocation of its measured phase profiled
// (runtime.MemProfileRate = 1).
type passBResult struct {
	r      *rep
	allocs map[string]float64 // allocations per bucket
	total  float64
}

func passB(run func(probes) *rep) passBResult {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	var res passBResult
	res.r = run(probes{allocs: &res.allocs})
	runtime.MemProfileRate = old
	for _, n := range res.allocs {
		res.total += n
	}
	return res
}
