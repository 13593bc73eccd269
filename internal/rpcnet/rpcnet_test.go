package rpcnet

import (
	"errors"
	"testing"
	"time"

	"sdf/internal/sim"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.RPCOverhead = 0
	cfg.SubRequestCPU = 0
	return cfg
}

func TestResponseTransferTime(t *testing.T) {
	env := sim.NewEnv()
	n := NewNetwork(env, fastConfig())
	c := n.NewClient()
	var elapsed time.Duration
	w := env.Go("t", func(p *sim.Proc) {
		start := env.Now()
		c.Call(p, 0, []SubRequest{func(p *sim.Proc) int { return 1_250_000 }})
		elapsed = env.Now() - start
	})
	env.RunUntilDone(w)
	env.Close()
	// 1.25 MB over a 1.25 GB/s client NIC: ~1 ms (client NIC is the
	// slower of the two links).
	if elapsed < 990*time.Microsecond || elapsed > 1100*time.Microsecond {
		t.Fatalf("transfer took %v, want ~1ms", elapsed)
	}
}

func TestBatchExecutesConcurrently(t *testing.T) {
	env := sim.NewEnv()
	n := NewNetwork(env, fastConfig())
	c := n.NewClient()
	var elapsed time.Duration
	sub := func(p *sim.Proc) int {
		p.Wait(10 * time.Millisecond) // simulated storage work
		return 0
	}
	w := env.Go("t", func(p *sim.Proc) {
		start := env.Now()
		c.Call(p, 0, []SubRequest{sub, sub, sub, sub})
		elapsed = env.Now() - start
	})
	env.RunUntilDone(w)
	env.Close()
	// Four 10 ms sub-requests in parallel: ~10 ms, not 40.
	if elapsed > 12*time.Millisecond {
		t.Fatalf("batch took %v, want ~10ms (concurrent)", elapsed)
	}
}

func TestServerNICSharedAcrossClients(t *testing.T) {
	env := sim.NewEnv()
	cfg := fastConfig()
	n := NewNetwork(env, cfg)
	// 4 clients each pulling 1.25 GB/s worth would total 5 GB/s;
	// the 2.5 GB/s server pool halves it.
	const respSize = 12_500_000 // 10 ms at client NIC rate
	done := 0
	for i := 0; i < 4; i++ {
		c := n.NewClient()
		env.Go("client", func(p *sim.Proc) {
			c.Call(p, 0, []SubRequest{func(p *sim.Proc) int { return respSize }})
			done++
		})
	}
	env.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	// Server-bound: 4 x 12.5 MB over 2.5 GB/s = 20 ms.
	if env.Now() < 19*time.Millisecond || env.Now() > 22*time.Millisecond {
		t.Fatalf("finished at %v, want ~20ms (server NIC bound)", env.Now())
	}
	env.Close()
}

func TestServerCPUBoundsSubRequests(t *testing.T) {
	env := sim.NewEnv()
	cfg := fastConfig()
	cfg.SubRequestCPU = time.Millisecond
	n := NewNetwork(env, cfg)
	c := n.NewClient()
	var elapsed time.Duration
	batch := make([]SubRequest, 2*serverCPUs+1)
	for i := range batch {
		batch[i] = func(p *sim.Proc) int { return 0 }
	}
	w := env.Go("t", func(p *sim.Proc) {
		start := env.Now()
		c.Call(p, 0, batch)
		elapsed = env.Now() - start
	})
	env.RunUntilDone(w)
	env.Close()
	// 33 x 1 ms of CPU on 16 cores: three rounds, 3 ms.
	if elapsed != 3*time.Millisecond {
		t.Fatalf("elapsed = %v, want 3ms", elapsed)
	}
}

func TestDoWithoutLossIsOneCall(t *testing.T) {
	env := sim.NewEnv()
	n := NewNetwork(env, fastConfig())
	c := n.NewClient()
	w := env.Go("t", func(p *sim.Proc) {
		start := env.Now()
		got, err := c.DoBudget(p, 0, []SubRequest{func(p *sim.Proc) int { return 1_250_000 }}, time.Second)
		if err != nil || got != 1_250_000 {
			t.Errorf("DoBudget = %d/%v", got, err)
		}
		elapsed := env.Now() - start
		if elapsed < 990*time.Microsecond || elapsed > 1100*time.Microsecond {
			t.Errorf("loss-free DoBudget took %v, want ~1ms (same as Call)", elapsed)
		}
	})
	env.RunUntilDone(w)
	env.Close()
	if drops, retries, deadlines := n.Stats(); drops+retries+deadlines != 0 {
		t.Fatalf("loss-free stats = %d/%d/%d, want all 0", drops, retries, deadlines)
	}
}

func TestDoRetriesThroughLoss(t *testing.T) {
	env := sim.NewEnv()
	cfg := fastConfig()
	cfg.Seed = 42
	cfg.RequestTimeout = 5 * time.Millisecond
	cfg.RetryBackoff = time.Millisecond
	n := NewNetwork(env, cfg)
	n.InjectLoss(0.5)
	c := n.NewClient()
	w := env.Go("t", func(p *sim.Proc) {
		ok := 0
		for i := 0; i < 20; i++ {
			got, err := c.DoBudget(p, 100, []SubRequest{func(p *sim.Proc) int { return 1000 }}, time.Second)
			if err == nil && got == 1000 {
				ok++
			}
		}
		if ok < 15 {
			t.Errorf("only %d/20 requests survived 50%% loss with retries", ok)
		}
	})
	env.RunUntilDone(w)
	env.Close()
	drops, retries, _ := n.Stats()
	if drops == 0 || retries == 0 {
		t.Fatalf("stats drops=%d retries=%d, want both > 0 at 50%% loss", drops, retries)
	}
}

func TestDoDeadlineBudget(t *testing.T) {
	env := sim.NewEnv()
	cfg := fastConfig()
	cfg.Seed = 7
	cfg.RequestTimeout = 5 * time.Millisecond
	cfg.RetryBackoff = time.Millisecond
	n := NewNetwork(env, cfg)
	n.InjectLoss(1) // nothing gets through
	c := n.NewClient()
	const budget = 30 * time.Millisecond
	w := env.Go("t", func(p *sim.Proc) {
		start := env.Now()
		_, err := c.DoBudget(p, 0, nil, budget)
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("DoBudget under total loss: %v, want ErrDeadlineExceeded", err)
		}
		if elapsed := env.Now() - start; elapsed > budget+cfg.RequestTimeout {
			t.Errorf("DoBudget gave up after %v, budget was %v", elapsed, budget)
		}
	})
	env.RunUntilDone(w)
	env.Close()
	if _, _, deadlines := n.Stats(); deadlines != 1 {
		t.Fatalf("deadlines = %d, want 1", deadlines)
	}
}

func TestRPCOverheadCharged(t *testing.T) {
	env := sim.NewEnv()
	cfg := fastConfig()
	cfg.RPCOverhead = 100 * time.Microsecond
	n := NewNetwork(env, cfg)
	c := n.NewClient()
	var elapsed time.Duration
	w := env.Go("t", func(p *sim.Proc) {
		start := env.Now()
		c.Call(p, 0, nil)
		elapsed = env.Now() - start
	})
	env.RunUntilDone(w)
	env.Close()
	if elapsed != 100*time.Microsecond {
		t.Fatalf("elapsed = %v, want 100µs", elapsed)
	}
}

// TestRetryTimeoutCappedByDeadline is the regression test for the
// retry deadline-accounting fix: each lost attempt's RequestTimeout
// must be capped at the remaining deadline budget, never re-armed in
// full. With a 15 ms budget, a 10 ms timeout, and total loss, the old
// accounting waited 10 ms + 2 ms backoff + 10 ms ≈ 22 ms before giving
// up — past the caller's deadline. The fixed loop truncates the second
// wait so the call returns within the budget.
func TestRetryTimeoutCappedByDeadline(t *testing.T) {
	env := sim.NewEnv()
	cfg := fastConfig()
	cfg.Seed = 11
	cfg.RequestTimeout = 10 * time.Millisecond
	cfg.RetryBackoff = 2 * time.Millisecond
	n := NewNetwork(env, cfg)
	n.InjectLoss(1)
	c := n.NewClient()
	const budget = 15 * time.Millisecond
	w := env.Go("t", func(p *sim.Proc) {
		start := env.Now()
		_, err := c.DoBudget(p, 0, nil, budget)
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("DoBudget under total loss: %v, want ErrDeadlineExceeded", err)
		}
		if elapsed := env.Now() - start; elapsed > budget {
			t.Errorf("DoBudget spent %v, deadline budget was %v: retries re-armed the timeout", elapsed, budget)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}
