package metrics

import (
	"testing"
	"time"

	"sdf/internal/sim"
	"sdf/internal/trace"
)

// sloHarness runs a workload against one latency objective and
// returns the engine after the horizon.
func sloHarness(t *testing.T, budget float64, load func(h *Histogram, p *sim.Proc)) *SLO {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	r := NewRegistry()
	h := r.Histogram("read_latency")
	s := NewSLO(env, r, 100*time.Millisecond, Objective{
		Name: "read_p99", Kind: QuantileBelow, Metric: "read_latency",
		Q: 0.99, Threshold: 0.001, Budget: budget,
	})
	env.Go("load", func(p *sim.Proc) { load(h, p) })
	env.RunUntil(1100 * time.Millisecond)
	return s
}

func TestSLOQuantileMet(t *testing.T) {
	s := sloHarness(t, 0.1, func(h *Histogram, p *sim.Proc) {
		for i := 0; i < 100; i++ {
			h.Observe(500 * time.Microsecond) // well under the 1ms objective
			p.Wait(10 * time.Millisecond)
		}
	})
	rep := s.Report()
	if len(rep) != 1 || !rep[0].Met || rep[0].Violations != 0 {
		t.Fatalf("healthy run missed the SLO: %+v", rep)
	}
	if rep[0].Windows != 10 {
		t.Fatalf("evaluated %d windows, want 10", rep[0].Windows)
	}
}

func TestObjectiveResultString(t *testing.T) {
	r := ObjectiveResult{Name: "sdf/read_p99", Windows: 10, Violations: 1, Budget: 0.1, Burn: 1, Met: true}
	if got, want := r.String(), "sdf/read_p99                 met        1/ 10 windows violated, budget 10%, burn 100%"; got != want {
		t.Errorf("met result renders %q, want %q", got, want)
	}
	r.Violations, r.Burn, r.Met = 3, 3, false
	if got, want := r.String(), "sdf/read_p99                 VIOLATED   3/ 10 windows violated, budget 10%, burn 300%"; got != want {
		t.Errorf("violated result renders %q, want %q", got, want)
	}
}

func TestSLOQuantileBudgetBurn(t *testing.T) {
	// One bad window out of ten fits a 10% budget exactly (burn 100%);
	// the same run misses a zero-budget objective.
	bad := func(h *Histogram, p *sim.Proc) {
		for i := 0; i < 100; i++ {
			d := 500 * time.Microsecond
			if i < 10 { // first window only
				d = 5 * time.Millisecond
			}
			h.Observe(d)
			p.Wait(10 * time.Millisecond)
		}
	}
	s := sloHarness(t, 0.1, bad)
	rep := s.Report()
	if !rep[0].Met || rep[0].Violations != 1 {
		t.Fatalf("one bad window in ten should fit a 10%% budget: %+v", rep[0])
	}
	if rep[0].Burn < 0.99 || rep[0].Burn > 1.01 {
		t.Fatalf("burn %v, want ~1.0", rep[0].Burn)
	}
	s = sloHarness(t, 0, bad)
	if rep = s.Report(); rep[0].Met {
		t.Fatalf("zero-budget objective absorbed a violation: %+v", rep[0])
	}
}

func TestSLOEmptyWindowsSkipped(t *testing.T) {
	s := sloHarness(t, 0, func(h *Histogram, p *sim.Proc) {
		h.Observe(100 * time.Microsecond) // one observation, then silence
	})
	rep := s.Report()
	if rep[0].Windows != 1 {
		t.Fatalf("idle windows were evaluated: %+v", rep[0])
	}
	if !rep[0].Met {
		t.Fatalf("quiet run missed the SLO: %+v", rep[0])
	}
}

func TestSLOAlwaysZeroAndRate(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	r := NewRegistry()
	lost := r.Counter("lost")
	served := r.Counter("served")
	s := NewSLO(env, r, 100*time.Millisecond,
		Objective{Name: "no_lost_reads", Kind: AlwaysZero, Metric: "lost"},
		Objective{Name: "availability", Kind: RateAbove, Metric: "served", Threshold: 50, Budget: 0.5},
	)
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			served.Inc() // 100/s, above the 50/s floor
			if i == 90 {
				lost.Inc()
			}
			p.Wait(10 * time.Millisecond)
		}
	})
	env.RunUntil(1050 * time.Millisecond)
	rep := s.Report()
	if rep[0].Name != "no_lost_reads" || rep[0].Met {
		t.Fatalf("lost read did not trip the zero objective: %+v", rep[0])
	}
	// The loss lands in the tenth window; every window from there on
	// (10 of 10 evaluated... only the tail) counts it.
	if rep[0].Violations == 0 {
		t.Fatalf("no violations recorded for the loss: %+v", rep[0])
	}
	if !rep[1].Met {
		t.Fatalf("steady service rate missed availability: %+v", rep[1])
	}
}

func TestSLOAlertsAreTraced(t *testing.T) {
	env := sim.NewEnv()
	tr := trace.NewCollector()
	env.SetTracer(tr)
	defer env.Close()
	r := NewRegistry()
	h := r.Histogram("lat")
	s := NewSLO(env, r, 100*time.Millisecond, Objective{
		Name: "p99", Kind: QuantileBelow, Metric: "lat", Q: 0.99, Threshold: 0.001,
	})
	env.Go("load", func(p *sim.Proc) {
		h.Observe(50 * time.Millisecond)
	})
	env.RunUntil(250 * time.Millisecond)
	alerts := s.Alerts()
	if len(alerts) != 1 || alerts[0].Objective != "p99" || alerts[0].At != 100*time.Millisecond {
		t.Fatalf("alerts = %+v, want one p99 alert at 100ms", alerts)
	}
	found := false
	for _, ev := range tr.Events() {
		if ev.Name == "slo/alert:p99" && ev.Phase == trace.PhaseFault {
			found = true
		}
	}
	if !found {
		t.Fatal("violation did not emit a fault-phase trace span")
	}
}
