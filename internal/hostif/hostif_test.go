package hostif

import (
	"testing"
	"time"

	"sdf/internal/sim"
)

func TestPCIeFullDuplex(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	pcie := PCIe11x8(env)
	var readEnd, writeEnd time.Duration
	env.Go("r", func(p *sim.Proc) {
		pcie.ToHost(p, pcieToHost) // 1 second of traffic
		readEnd = env.Now()
	})
	env.Go("w", func(p *sim.Proc) {
		pcie.ToDevice(p, pcieToDevice)
		writeEnd = env.Now()
	})
	env.Run()
	// Full duplex: both directions complete in ~1 s, not 2 s.
	for _, end := range []time.Duration{readEnd, writeEnd} {
		if end < 999*time.Millisecond || end > 1001*time.Millisecond {
			t.Fatalf("transfer ended at %v, want ~1s", end)
		}
	}
}

func TestPCIeFairSharing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	pcie := PCIe11x8(env)
	done := 0
	for i := 0; i < 4; i++ {
		env.Go("r", func(p *sim.Proc) {
			pcie.ToHost(p, pcieToHost/4)
			done++
		})
	}
	env.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	// 4 quarter-rate transfers sharing the link all end at ~1 s.
	if d := env.Now() - time.Second; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("finished at %v, want ~1s", env.Now())
	}
}

func TestSATAHalfDuplex(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	sata := SATA2(env)
	var ends []time.Duration
	n := int(sataRate / 10) // 100 ms of traffic each
	env.Go("r", func(p *sim.Proc) {
		sata.ToHost(p, n)
		ends = append(ends, env.Now())
	})
	env.Go("w", func(p *sim.Proc) {
		sata.ToDevice(p, n)
		ends = append(ends, env.Now())
	})
	env.Run()
	// Half duplex: the second transfer waits for the first.
	if len(ends) != 2 {
		t.Fatalf("ends = %v", ends)
	}
	if ends[1] < 200*time.Millisecond {
		t.Fatalf("second transfer ended at %v, want >= 200ms (serialized)", ends[1])
	}
}

func TestStackCosts(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	s := NewStack(env, StackParams{SubmitCost: 4 * time.Microsecond, CompleteCost: 9 * time.Microsecond, CPUs: 1})
	env.Go("req", func(p *sim.Proc) {
		s.Submit(p)
		s.Complete(p)
	})
	env.Run()
	if env.Now() != 13*time.Microsecond {
		t.Fatalf("stack time = %v, want 13µs", env.Now())
	}
}

func TestInterruptMergingReducesCompletionCost(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	merged := NewStack(env, StackParams{CompleteCost: 8 * time.Microsecond, InterruptMerge: 4, CPUs: 1})
	plain := NewStack(env, StackParams{CompleteCost: 8 * time.Microsecond, CPUs: 1})
	if merged.PerRequestCost() != 2*time.Microsecond {
		t.Fatalf("merged cost = %v, want 2µs", merged.PerRequestCost())
	}
	if plain.PerRequestCost() != 8*time.Microsecond {
		t.Fatalf("plain cost = %v, want 8µs", plain.PerRequestCost())
	}
}

func TestStackCPUBound(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	s := NewStack(env, StackParams{SubmitCost: 10 * time.Microsecond, CPUs: 2})
	for i := 0; i < 4; i++ {
		env.Go("req", func(p *sim.Proc) { s.Submit(p) })
	}
	env.Run()
	// 4 requests on 2 CPUs: 2 batches of 10 µs.
	if env.Now() != 20*time.Microsecond {
		t.Fatalf("elapsed = %v, want 20µs", env.Now())
	}
}

func TestAbortLeavesFlightWithoutCharge(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	s := NewStack(env, StackParams{SubmitCost: 10 * time.Microsecond, CompleteCost: 20 * time.Microsecond, CPUs: 1})
	env.Go("ok", func(p *sim.Proc) {
		s.Submit(p)
		s.Complete(p)
	})
	env.Go("failed", func(p *sim.Proc) {
		s.Submit(p)
		if s.Inflight() == 0 {
			t.Error("submitted request not in flight")
		}
		s.Abort()
	})
	env.Run()
	if s.Inflight() != 0 {
		t.Fatalf("Inflight = %d, want 0", s.Inflight())
	}
	// Two submits and one completion on one CPU; the abort charges nothing.
	if env.Now() != 40*time.Microsecond {
		t.Fatalf("elapsed = %v, want 40µs", env.Now())
	}
}

func TestKernelVsBypassGap(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	kernel := NewStack(env, KernelStack())
	bypass := NewStack(env, BypassStack())
	k := kernel.PerRequestCost()
	b := bypass.PerRequestCost()
	if k < 12*time.Microsecond || k > 14*time.Microsecond {
		t.Fatalf("kernel cost = %v, want ~12.9µs", k)
	}
	if b < 2*time.Microsecond || b > 4*time.Microsecond {
		t.Fatalf("bypass cost = %v, want 2-4µs", b)
	}
	if float64(k)/float64(b) < 3 {
		t.Fatalf("kernel/bypass ratio %.1f, want > 3x", float64(k)/float64(b))
	}
}

func TestMovedCounts(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	pcie := PCIe11x8(env)
	env.Go("x", func(p *sim.Proc) {
		pcie.ToHost(p, 1000)
		pcie.ToDevice(p, 500)
	})
	env.Run()
	toHost, toDevice := pcie.Moved()
	if toHost != 1000 || toDevice != 500 {
		t.Fatalf("moved = %d/%d, want 1000/500", toHost, toDevice)
	}
}
