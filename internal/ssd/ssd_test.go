package ssd

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"sdf/internal/metrics"
	"sdf/internal/sim"
)

// seqBandwidth measures sequential throughput in MB/s with requests of
// reqSize issued by k concurrent workers (modelling the paper's
// deep-queue microbenchmark), after warming up.
func seqBandwidth(t *testing.T, prof Profile, write bool, reqSize int64, k int) float64 {
	t.Helper()
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !write {
		if err := s.WarmFill(0.9); err != nil {
			t.Fatal(err)
		}
	}
	const warmup = 500 * time.Millisecond
	deadline := 4 * time.Second
	var moved int64 // bytes of requests issued at or after warmup
	span := s.Capacity() / int64(k) / reqSize * reqSize
	if span < reqSize {
		t.Fatalf("device too small for %d workers", k)
	}
	for w := 0; w < k; w++ {
		base := int64(w) * span
		env.Go("worker", func(p *sim.Proc) {
			off := base
			for env.Now() < deadline {
				start := env.Now()
				if write {
					err = s.Write(p, off, reqSize)
				} else {
					err = s.Read(p, off, reqSize)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if start >= warmup {
					moved += reqSize
				}
				off += reqSize
				if off+reqSize > base+span {
					off = base
				}
			}
		})
	}
	env.RunUntil(deadline)
	mbps := float64(moved) / (deadline - warmup).Seconds() / 1e6
	env.Close()
	return mbps
}

func TestTable1Intel320Read(t *testing.T) {
	prof := Intel320(0.20).ScaleBlocks(24)
	mbps := seqBandwidth(t, prof, false, 2<<20, 8)
	// Paper Table 1: 219 MB/s measured (73% of 300 raw).
	if mbps < 190 || mbps < 195 || mbps > 245 {
		t.Fatalf("Intel 320 seq read %.0f MB/s, want ~219", mbps)
	}
}

func TestTable1Intel320Write(t *testing.T) {
	prof := Intel320(0.20).ScaleBlocks(24)
	mbps := seqBandwidth(t, prof, true, 2<<20, 8)
	// Paper Table 1: 153 MB/s measured (51% of 300 raw).
	if mbps < 125 || mbps > 180 {
		t.Fatalf("Intel 320 seq write %.0f MB/s, want ~153", mbps)
	}
}

func TestTable1HuaweiGen3Read(t *testing.T) {
	prof := HuaweiGen3(0.25).ScaleBlocks(16)
	mbps := seqBandwidth(t, prof, false, 2<<20, 16)
	// Paper Table 1: 1200 MB/s measured (75% of 1600 raw).
	if mbps < 1050 || mbps > 1350 {
		t.Fatalf("Huawei Gen3 seq read %.0f MB/s, want ~1200", mbps)
	}
}

func TestTable1HuaweiGen3Write(t *testing.T) {
	prof := HuaweiGen3(0.25).ScaleBlocks(16)
	prof.BufferBytes = 64 << 20 // scale with the shrunken device
	mbps := seqBandwidth(t, prof, true, 2<<20, 16)
	// Paper Table 1: 460 MB/s measured (48% of 950 raw).
	if mbps < 390 || mbps > 530 {
		t.Fatalf("Huawei Gen3 seq write %.0f MB/s, want ~460", mbps)
	}
}

func TestTable1HighEndRead(t *testing.T) {
	prof := HighEnd(0.20).ScaleBlocks(12)
	mbps := seqBandwidth(t, prof, false, 2<<20, 16)
	// Paper Table 1: 1300 MB/s measured (81% of 1600 raw).
	if mbps < 1130 || mbps > 1470 {
		t.Fatalf("High-end seq read %.0f MB/s, want ~1300", mbps)
	}
}

func TestTable1HighEndWrite(t *testing.T) {
	prof := HighEnd(0.20).ScaleBlocks(12)
	prof.BufferBytes = 64 << 20 // scale with the shrunken device
	mbps := seqBandwidth(t, prof, true, 2<<20, 16)
	// Paper Table 1: 620 MB/s measured (41% of 1500 raw).
	if mbps < 520 || mbps > 720 {
		t.Fatalf("High-end seq write %.0f MB/s, want ~620", mbps)
	}
}

func TestCapacityAccounting(t *testing.T) {
	noOP := Intel320(0).ScaleBlocks(32)
	withOP := Intel320(0.25).ScaleBlocks(32)
	env := sim.NewEnv()
	a, err := New(env, noOP)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(env, withOP)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if a.Capacity() <= b.Capacity() {
		t.Fatalf("capacity with OP (%d) >= without (%d)", b.Capacity(), a.Capacity())
	}
	// Parity (1 of 10 channels) plus hidden reserve: usable well below raw.
	raw := a.prof.Nand.ChipBytes() * int64(a.prof.Chips) * int64(a.prof.Channels)
	if frac := float64(a.Capacity()) / float64(raw); frac > 0.90 {
		t.Fatalf("0%%-OP usable fraction %.2f; parity+reserve should cap it below 0.90", frac)
	}
}

// randomWriteThroughput measures steady-state 4 KB random write
// throughput (MB/s) on a pre-filled device — the Figure 1 experiment.
func randomWriteThroughput(t *testing.T, prof Profile, seed int64) float64 {
	t.Helper()
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WarmFillRandom(1.0, seed); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	const warmup = 5 * time.Second
	deadline := 8 * time.Second
	var moved int64 // bytes of requests issued at or after warmup
	slots := s.Capacity() / 4096
	for w := 0; w < 32; w++ {
		env.Go("writer", func(p *sim.Proc) {
			for env.Now() < deadline {
				start := env.Now()
				off := rng.Int63n(slots) * 4096
				if err := s.Write(p, off, 4096); err != nil {
					t.Error(err)
					return
				}
				if start >= warmup {
					moved += 4096
				}
			}
		})
	}
	env.RunUntil(deadline)
	mbps := float64(moved) / (deadline - warmup).Seconds() / 1e6
	env.Close()
	return mbps
}

func TestFigure1OverProvisioningShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long steady-state GC run")
	}
	// Figure 1: random-write throughput grows with over-provisioning,
	// steeply at low OP (>400% from 0% to 25%, +21% from 7% to 25%).
	var results []float64
	for _, op := range []float64{0.01, 0.07, 0.25, 0.50} {
		prof := Intel320(op).ScaleBlocks(64)
		prof.BufferBytes = 0 // sustained rate: buffer only hides the ramp
		results = append(results, randomWriteThroughput(t, prof, 42))
	}
	for i := 1; i < len(results); i++ {
		if results[i] <= results[i-1] {
			t.Fatalf("throughput not monotone in OP: %v", results)
		}
	}
	if ratio := results[2] / results[0]; ratio < 3 {
		t.Fatalf("25%%/1%% OP ratio %.1f, want > 3 (paper: >4x)", ratio)
	}
}

func TestWriteAmplificationUnderRandomWrites(t *testing.T) {
	prof := Intel320(0.25).ScaleBlocks(24)
	prof.BufferBytes = 0 // write through so WA is measured directly
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WarmFillRandom(1.0, 5); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	slots := s.Capacity() / int64(s.PageSize())
	writer := env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 3000; i++ {
			off := rng.Int63n(slots) * int64(s.PageSize())
			if err := s.Write(p, off, int64(s.PageSize())); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.RunUntilDone(writer)
	st := s.Stats()
	env.Close()
	wa := st.WriteAmplification()
	// Greedy GC at 25% OP under uniform random: WA roughly 1.5-4.
	if wa < 1.2 || wa > 5 {
		t.Fatalf("write amplification %.2f, want 1.2-5 at 25%% OP", wa)
	}
	if st.GCMovedPages == 0 {
		t.Fatal("GC never ran despite full device")
	}
}

func TestBufferAbsorbsBurst(t *testing.T) {
	prof := HuaweiGen3(0.25).ScaleBlocks(16)
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	var lat time.Duration
	w := env.Go("w", func(p *sim.Proc) {
		start := env.Now()
		if err := s.Write(p, 0, 8<<20); err != nil {
			t.Error(err)
		}
		lat = env.Now() - start
	})
	env.RunUntilDone(w)
	env.Close()
	// 8 MB into an empty 1 GB buffer: PCIe (~6 ms) + ingest; far below
	// the ~70 ms flash program time.
	if lat > 15*time.Millisecond {
		t.Fatalf("buffered 8 MB write took %v, want < 15 ms", lat)
	}
}

func TestWriteLatencyVarianceNearFullGen3(t *testing.T) {
	if testing.Short() {
		t.Skip("long near-full trace")
	}
	// Figure 8 (left): sustained 8 MB writes to a nearly full Gen3
	// swing between buffer hits and GC-throttled stalls.
	prof := HuaweiGen3(0.10).ScaleBlocks(16) // "almost full" (Figure 8 setup)
	prof.BufferBytes = 64 << 20              // scaled with the scaled device
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WarmFillRandom(1.0, 6); err != nil {
		t.Fatal(err)
	}
	var series metrics.Series
	rng := rand.New(rand.NewSource(4))
	slots := s.Capacity() / (8 << 20)
	writer := env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			off := rng.Int63n(slots) * (8 << 20)
			start := env.Now()
			if err := s.Write(p, off, 8<<20); err != nil {
				t.Error(err)
				return
			}
			series.Observe(env.Now() - start)
		}
	})
	env.RunUntilDone(writer)
	env.Close()
	if series.Min() >= 30*time.Millisecond {
		t.Fatalf("min latency %v; buffer hits should be fast", series.Min())
	}
	if series.Max() < 6*series.Min() {
		t.Fatalf("latency spread max/min = %.1f, want >= 6x (paper: 7 ms .. 650 ms)",
			float64(series.Max())/float64(series.Min()))
	}
}

func TestTrimEnablesReclaim(t *testing.T) {
	prof := Intel320(0.10).ScaleBlocks(24)
	prof.BufferBytes = 0 // write through for determinism
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	w := env.Go("t", func(p *sim.Proc) {
		if err := s.Write(p, 0, 4<<20); err != nil {
			t.Fatal(err)
		}
		if err := s.Trim(p, 0, 4<<20); err != nil {
			t.Fatal(err)
		}
		// All pages invalid; rewriting must succeed indefinitely.
		for i := 0; i < 8; i++ {
			if err := s.Write(p, 0, 4<<20); err != nil {
				t.Fatal(err)
			}
			if err := s.Trim(p, 0, 4<<20); err != nil {
				t.Fatal(err)
			}
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestRangeValidation(t *testing.T) {
	prof := Intel320(0.10).ScaleBlocks(24)
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	w := env.Go("t", func(p *sim.Proc) {
		if err := s.Read(p, -1, 4096); err == nil {
			t.Error("negative offset accepted")
		}
		if err := s.Write(p, s.Capacity(), 4096); !errors.Is(err, ErrDeviceFull) {
			t.Errorf("write past capacity: %v", err)
		}
		if err := s.Read(p, 0, 0); err == nil {
			t.Error("zero-size read accepted")
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestSubPageWriteCausesRMW(t *testing.T) {
	prof := Intel320(0.10).ScaleBlocks(24)
	prof.BufferBytes = 0 // write through so the mapping exists at once
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	w := env.Go("t", func(p *sim.Proc) {
		// First write maps the page; second partial write must RMW.
		if err := s.Write(p, 0, int64(s.PageSize())); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(p, 0, 4096); err != nil {
			t.Fatal(err)
		}
	})
	env.RunUntilDone(w)
	st := s.Stats()
	env.Close()
	if st.RMWReads != 1 {
		t.Fatalf("RMW reads = %d, want 1", st.RMWReads)
	}
}

func TestUnwrittenReadIsFast(t *testing.T) {
	prof := HuaweiGen3(0.25).ScaleBlocks(16)
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	var lat time.Duration
	w := env.Go("t", func(p *sim.Proc) {
		start := env.Now()
		if err := s.Read(p, 0, int64(s.PageSize())); err != nil {
			t.Error(err)
		}
		lat = env.Now() - start
	})
	env.RunUntilDone(w)
	env.Close()
	// No flash involved: just the stack, controller, and PCIe.
	if lat > 100*time.Microsecond {
		t.Fatalf("unmapped read took %v, want < 100µs", lat)
	}
}

func TestWarmFillMakesDataReadable(t *testing.T) {
	prof := HuaweiGen3(0.25).ScaleBlocks(16)
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WarmFill(0.5); err != nil {
		t.Fatal(err)
	}
	var lat time.Duration
	w := env.Go("t", func(p *sim.Proc) {
		start := env.Now()
		if err := s.Read(p, 0, int64(s.PageSize())); err != nil {
			t.Error(err)
		}
		lat = env.Now() - start
	})
	env.RunUntilDone(w)
	env.Close()
	// Mapped page: must pay the flash read (~300µs+).
	if lat < 200*time.Microsecond {
		t.Fatalf("warm-filled read took only %v; flash not exercised", lat)
	}
}

func TestWarmFillRejectsDirtyDevice(t *testing.T) {
	prof := Intel320(0.10).ScaleBlocks(24)
	prof.BufferBytes = 0
	env := sim.NewEnv()
	s, err := New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	w := env.Go("t", func(p *sim.Proc) {
		if err := s.Write(p, 0, int64(s.PageSize())); err != nil {
			t.Fatal(err)
		}
	})
	env.RunUntilDone(w)
	defer env.Close()
	if err := s.WarmFill(0.5); err == nil {
		t.Fatal("WarmFill on dirty device accepted")
	}
}
