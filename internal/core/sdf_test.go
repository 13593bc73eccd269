package core

import (
	"math/rand"
	"testing"
	"time"

	"sdf/internal/metrics"
	"sdf/internal/sim"
)

// testConfig is the full 44-channel card with a reduced block count
// per plane so construction stays cheap; timing is unchanged.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Channel.Nand.BlocksPerPlane = 32
	cfg.Channel.SparePerPlane = 2
	return cfg
}

func TestProductionGeometry(t *testing.T) {
	env := sim.NewEnv()
	d, err := New(env, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if d.RawCapacity() != 704<<30 {
		t.Fatalf("raw capacity = %d GiB, want 704", d.RawCapacity()>>30)
	}
	if frac := float64(d.Capacity()) / float64(d.RawCapacity()); frac < 0.99 {
		t.Fatalf("usable fraction %.3f, want >= 0.99 (paper: 99%%)", frac)
	}
	if d.BlockSize() != 8<<20 || d.PageSize() != 8<<10 {
		t.Fatalf("units = %d/%d, want 8 MiB / 8 KiB", d.BlockSize(), d.PageSize())
	}
	// Raw bandwidths from §3.2: 1.67 GB/s read, 1.01 GB/s write.
	if r := d.RawReadBandwidth() / 1e9; r < 1.6 || r < 1.55 || r > 1.75 {
		t.Fatalf("raw read bandwidth %.2f GB/s, want ~1.67", r)
	}
	if w := d.RawWriteBandwidth() / 1e9; w < 0.95 || w > 1.1 {
		t.Fatalf("raw write bandwidth %.2f GB/s, want ~1.01", w)
	}
}

// measure runs one worker per channel: setup once (writing a block so
// reads have data), then a steady-state loop of fn. Throughput counts
// only operations that started inside the window [warmup, deadline],
// eliminating ramp-up and boundary artifacts (slightly conservative:
// at most one op per channel straddles the deadline).
func measure(t *testing.T, cfg Config, warmup, deadline time.Duration, fn func(p *sim.Proc, d *Device, ch int) int) float64 {
	t.Helper()
	env := sim.NewEnv()
	d, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	meter := metrics.NewMeter(warmup)
	for ch := 0; ch < d.Channels(); ch++ {
		ch := ch
		env.Go("worker", func(p *sim.Proc) {
			if err := d.EraseWrite(p, ch, 0, nil); err != nil {
				t.Error(err)
				return
			}
			for env.Now() < deadline {
				start := env.Now()
				n := fn(p, d, ch)
				if start >= warmup {
					meter.Add(int64(n))
				}
			}
		})
	}
	env.Run()
	rate := meter.Rate(deadline) / 1e9
	env.Close()
	return rate
}

func TestSequentialReadThroughputMatchesTable4(t *testing.T) {
	cfg := testConfig()
	gbps := measure(t, cfg, 500*time.Millisecond, 4*time.Second,
		func(p *sim.Proc, d *Device, ch int) int {
			if _, err := d.Read(p, ch, 0, 0, d.BlockSize()); err != nil {
				t.Error(err)
				return 0
			}
			return d.BlockSize()
		})
	// Paper Table 4: 1.59 GB/s for 8 MB reads (99% of PCIe).
	if gbps < 1.40 || gbps > 1.65 {
		t.Fatalf("8 MB read throughput %.2f GB/s, want ~1.59", gbps)
	}
}

func TestSmallReadThroughputMatchesTable4(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(11))
	pages := 8 << 20 / (8 << 10)
	gbps := measure(t, cfg, 500*time.Millisecond, 2*time.Second,
		func(p *sim.Proc, d *Device, ch int) int {
			off := rng.Intn(pages) * d.PageSize()
			if _, err := d.Read(p, ch, 0, off, d.PageSize()); err != nil {
				t.Error(err)
				return 0
			}
			return d.PageSize()
		})
	// Paper Table 4: 1.23 GB/s for 8 KB reads with 44 threads.
	if gbps < 1.10 || gbps > 1.35 {
		t.Fatalf("8 KB read throughput %.2f GB/s, want ~1.23", gbps)
	}
}

func TestWriteThroughputMatchesTable4(t *testing.T) {
	cfg := testConfig()
	next := make([]int, cfg.Channels)
	gbps := measure(t, cfg, 500*time.Millisecond, 4*time.Second,
		func(p *sim.Proc, d *Device, ch int) int {
			lbn := next[ch] % d.BlocksPerChannel()
			next[ch]++
			if err := d.EraseWrite(p, ch, lbn, nil); err != nil {
				t.Error(err)
				return 0
			}
			return d.BlockSize()
		})
	// Paper Table 4: 0.96 GB/s for 8 MB writes (94% of raw).
	if gbps < 0.88 || gbps > 1.05 {
		t.Fatalf("8 MB write throughput %.2f GB/s, want ~0.96", gbps)
	}
}

func TestChannelScalingFigure7(t *testing.T) {
	// Throughput grows nearly linearly with active channels until the
	// PCIe ceiling (reads) or flash program limit (writes).
	read := make(map[int]float64)
	for _, n := range []int{4, 22, 44} {
		cfg := testConfig()
		env := sim.NewEnv()
		d, err := New(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const warmup = 500 * time.Millisecond
		deadline := 4 * time.Second
		meter := metrics.NewMeter(warmup)
		for ch := 0; ch < n; ch++ {
			ch := ch
			env.Go("worker", func(p *sim.Proc) {
				if err := d.EraseWrite(p, ch, 0, nil); err != nil {
					t.Error(err)
					return
				}
				for env.Now() < deadline {
					start := env.Now()
					if _, err := d.Read(p, ch, 0, 0, d.BlockSize()); err != nil {
						t.Error(err)
						return
					}
					if start >= warmup {
						meter.Add(int64(d.BlockSize()))
					}
				}
			})
		}
		env.Run()
		read[n] = meter.Rate(deadline) / 1e9
		env.Close()
	}
	// 4 channels: ~4 x 37 MB/s = ~0.15 GB/s; linear region.
	if read[4] < 0.10 || read[4] > 0.20 {
		t.Fatalf("4-channel read %.3f GB/s, want ~0.15", read[4])
	}
	// Half the channels roughly halves throughput (still linear).
	if ratio := read[22] / read[4]; ratio < 4.5 || ratio > 6.0 {
		t.Fatalf("22/4 channel ratio %.2f, want ~5.5 (linear scaling)", ratio)
	}
	// Full card within the PCIe ceiling.
	if read[44] < 1.3 || read[44] > 1.65 {
		t.Fatalf("44-channel read %.2f GB/s, want ~1.55", read[44])
	}
}

func TestWriteLatencyConsistencyFigure8(t *testing.T) {
	// SDF's erase+write latency is ~383 ms with little variation
	// (Figure 8, right panel): no GC, no buffer, no interference.
	cfg := testConfig()
	env := sim.NewEnv()
	d, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var series metrics.Series
	for ch := 0; ch < d.Channels(); ch++ {
		ch := ch
		env.Go("writer", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				start := env.Now()
				if err := d.EraseWrite(p, ch, i, nil); err != nil {
					t.Error(err)
					return
				}
				series.Observe(env.Now() - start)
			}
		})
	}
	env.Run()
	env.Close()
	mean := series.Mean()
	if mean < 340*time.Millisecond || mean > 420*time.Millisecond {
		t.Fatalf("mean erase+write latency %v, want ~383 ms", mean)
	}
	if cv := series.CoeffVar(); cv > 0.05 {
		t.Fatalf("latency CV %.3f, want < 0.05 (consistent)", cv)
	}
}

func TestEraseIsFast(t *testing.T) {
	cfg := testConfig()
	env := sim.NewEnv()
	d, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed time.Duration
	env.Go("eraser", func(p *sim.Proc) {
		start := env.Now()
		if err := d.Erase(p, 0, 0); err != nil {
			t.Error(err)
		}
		elapsed = env.Now() - start
	})
	env.Run()
	env.Close()
	// Two planes per chip in sequence: ~6 ms for 8 MB.
	if elapsed < 5*time.Millisecond || elapsed > 8*time.Millisecond {
		t.Fatalf("erase latency %v, want ~6 ms", elapsed)
	}
}

func TestInvalidChannel(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 2
	env := sim.NewEnv()
	d, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Go("t", func(p *sim.Proc) {
		if err := d.Erase(p, 5, 0); err == nil {
			t.Error("out-of-range channel accepted")
		}
		if _, err := d.Read(p, -1, 0, 0, d.PageSize()); err == nil {
			t.Error("negative channel accepted")
		}
	})
	env.Run()
	env.Close()
}

func TestCountersAggregate(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 2
	env := sim.NewEnv()
	d, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Go("t", func(p *sim.Proc) {
		for ch := 0; ch < 2; ch++ {
			if err := d.EraseWrite(p, ch, 0, nil); err != nil {
				t.Error(err)
			}
			if _, err := d.Read(p, ch, 0, 0, d.PageSize()); err != nil {
				t.Error(err)
			}
		}
	})
	env.Run()
	env.Close()
	r, w, e := d.Counters()
	if r != 2*int64(d.PageSize()) || w != 2*int64(d.BlockSize()) || e != 2 {
		t.Fatalf("counters = %d/%d/%d", r, w, e)
	}
}

func TestScanFilterMovesOnlyMatchesOverPCIe(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 2
	env := sim.NewEnv()
	d, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := env.Go("t", func(p *sim.Proc) {
		if err := d.EraseWrite(p, 0, 0, nil); err != nil {
			t.Error(err)
			return
		}
		before, _ := d.PCIe().Moved()
		matched, err := d.ScanFilter(p, 0, 0, 0.25)
		if err != nil {
			t.Error(err)
			return
		}
		after, _ := d.PCIe().Moved()
		if matched != d.BlockSize()/4 {
			t.Errorf("matched = %d, want quarter block", matched)
		}
		if got := after - before; got != int64(matched) {
			t.Errorf("PCIe moved %d, want %d (matches only)", got, matched)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

// A request the device fails must leave the in-flight gauge: every
// command on a dead channel errors after Submit, and none may stay
// counted between Submit and Complete.
func TestFailedRequestsLeaveInflight(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 2
	env := sim.NewEnv()
	defer env.Close()
	d, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := env.Go("t", func(p *sim.Proc) {
		if err := d.EraseWrite(p, 0, 0, nil); err != nil {
			t.Error(err)
			return
		}
		d.Channel(0).Kill()
		for i := 0; i < 3; i++ {
			if _, err := d.Read(p, 0, 0, 0, d.PageSize()); err == nil {
				t.Error("read on a dead channel succeeded")
			}
		}
		if err := d.EraseWrite(p, 0, 1, nil); err == nil {
			t.Error("write on a dead channel succeeded")
		}
		if err := d.Erase(p, 0, 0); err == nil {
			t.Error("erase on a dead channel succeeded")
		}
		if _, err := d.ScanFilter(p, 0, 0, 0.5); err == nil {
			t.Error("scan on a dead channel succeeded")
		}
		// The healthy channel still completes normally.
		if err := d.EraseWrite(p, 1, 0, nil); err != nil {
			t.Error(err)
		}
	})
	env.RunUntilDone(w)
	if got := d.stack.Inflight(); got != 0 {
		t.Errorf("Inflight = %d after all requests returned, want 0", got)
	}
}
