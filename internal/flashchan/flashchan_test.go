package flashchan

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"sdf/internal/sim"
)

// smallConfig is a channel with tiny geometry but real timing, data
// mode on, for functional tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Nand.BlocksPerPlane = 32
	cfg.Nand.PagesPerBlock = 8 // 64 KB erase block, 256 KB logical block
	cfg.Nand.RetainData = true
	cfg.SparePerPlane = 4
	cfg.Seed = 1
	return cfg
}

func run(t *testing.T, cfg Config, fn func(env *sim.Env, ch *Channel, p *sim.Proc)) time.Duration {
	t.Helper()
	env := sim.NewEnv()
	ch, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	body := env.Go("test", func(p *sim.Proc) { fn(env, ch, p) })
	env.Go("waiter", func(p *sim.Proc) { p.Join(body) })
	env.Run()
	now := env.Now()
	env.Close()
	return now
}

func TestGeometry(t *testing.T) {
	env := sim.NewEnv()
	ch, err := New(env, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if ch.BlockSize() != 8<<20 {
		t.Fatalf("BlockSize = %d, want 8 MiB", ch.BlockSize())
	}
	if ch.PageSize() != 8<<10 {
		t.Fatalf("PageSize = %d, want 8 KiB", ch.PageSize())
	}
	if ch.RawCapacity() != 16<<30 {
		t.Fatalf("RawCapacity = %d, want 16 GiB", ch.RawCapacity())
	}
	// 99%+ of raw capacity exposed.
	frac := float64(ch.Capacity()) / float64(ch.RawCapacity())
	if frac < 0.99 {
		t.Fatalf("usable fraction = %.3f, want >= 0.99", frac)
	}
}

func TestWriteRequiresErase(t *testing.T) {
	run(t, smallConfig(), func(env *sim.Env, ch *Channel, p *sim.Proc) {
		err := ch.Write(p, 0, make([]byte, ch.BlockSize()))
		if !errors.Is(err, ErrNotErased) {
			t.Errorf("write without erase: %v, want ErrNotErased", err)
		}
	})
}

func TestEraseWriteReadRoundTrip(t *testing.T) {
	run(t, smallConfig(), func(env *sim.Env, ch *Channel, p *sim.Proc) {
		data := make([]byte, ch.BlockSize())
		rand.New(rand.NewSource(42)).Read(data)
		if err := ch.Erase(p, 3); err != nil {
			t.Fatal(err)
		}
		if err := ch.Write(p, 3, data); err != nil {
			t.Fatal(err)
		}
		got, err := ch.ReadAt(p, 3, 0, ch.BlockSize())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("full-block read-back mismatch")
		}
		// Partial read across the stripe boundary.
		off := ch.stripeBytes() - ch.PageSize()
		got, err = ch.ReadAt(p, 3, off, 2*ch.PageSize())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[off:off+2*ch.PageSize()]) {
			t.Fatal("cross-stripe read mismatch")
		}
	})
}

func TestEraseWriteCombined(t *testing.T) {
	run(t, smallConfig(), func(env *sim.Env, ch *Channel, p *sim.Proc) {
		data := make([]byte, ch.BlockSize())
		for i := range data {
			data[i] = byte(i)
		}
		if err := ch.EraseWrite(p, 0, data); err != nil {
			t.Fatal(err)
		}
		got, err := ch.ReadAt(p, 0, 0, ch.PageSize())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:ch.PageSize()]) {
			t.Fatal("read-back mismatch after EraseWrite")
		}
	})
}

func TestRewriteRequiresReErase(t *testing.T) {
	run(t, smallConfig(), func(env *sim.Env, ch *Channel, p *sim.Proc) {
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := ch.Write(p, 0, nil); !errors.Is(err, ErrNotErased) {
			t.Errorf("overwrite without erase: %v, want ErrNotErased", err)
		}
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Errorf("re-erase-write: %v", err)
		}
	})
}

func TestAlignmentEnforced(t *testing.T) {
	run(t, smallConfig(), func(env *sim.Env, ch *Channel, p *sim.Proc) {
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ch.ReadAt(p, 0, 1, ch.PageSize()); !errors.Is(err, ErrBadAlignment) {
			t.Errorf("unaligned offset: %v", err)
		}
		if _, err := ch.ReadAt(p, 0, 0, 100); !errors.Is(err, ErrBadAlignment) {
			t.Errorf("unaligned size: %v", err)
		}
		if _, err := ch.ReadAt(p, 0, 0, ch.BlockSize()+ch.PageSize()); !errors.Is(err, ErrBadAddress) {
			t.Errorf("oversized read: %v", err)
		}
	})
}

// A negative offset is refused before the engine is taken, with no
// time spent: -PageSize would reach nand as page -1, and one stripe
// further back would index plane -1.
func TestNegativeOffsetRejected(t *testing.T) {
	run(t, smallConfig(), func(env *sim.Env, ch *Channel, p *sim.Proc) {
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		for _, off := range []int{-ch.PageSize(), -(ch.stripeBytes() + ch.PageSize())} {
			now := env.Now()
			if _, err := ch.ReadAt(p, 0, off, ch.PageSize()); !errors.Is(err, ErrBadAddress) {
				t.Errorf("off %d: %v, want ErrBadAddress", off, err)
			}
			if env.Now() != now || !ch.Idle() {
				t.Errorf("off %d: the refused read took the engine or time", off)
			}
		}
	})
}

func TestBadLBN(t *testing.T) {
	run(t, smallConfig(), func(env *sim.Env, ch *Channel, p *sim.Proc) {
		if err := ch.Erase(p, ch.LogicalBlocks()); !errors.Is(err, ErrBadAddress) {
			t.Errorf("out-of-range erase: %v", err)
		}
		if err := ch.Erase(p, -1); !errors.Is(err, ErrBadAddress) {
			t.Errorf("negative erase: %v", err)
		}
	})
}

func TestDynamicWearLeveling(t *testing.T) {
	cfg := smallConfig()
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		// Hammer a single logical block; DWL must spread erases over
		// the whole free pool rather than cycling one physical block.
		for i := 0; i < 3*cfg.Nand.BlocksPerPlane; i++ {
			if err := ch.EraseWrite(p, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		w := ch.Wear()
		if w.MaxErase-w.MinErase > 2 {
			t.Fatalf("wear spread %d..%d too wide for dynamic leveling", w.MinErase, w.MaxErase)
		}
	})
}

func TestBadBlockRetirement(t *testing.T) {
	cfg := smallConfig()
	cfg.Nand.EraseLimit = 6
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		// Wear out blocks; the engine must retire them transparently
		// until the spare pool is exhausted.
		var err error
		writes := 0
		for i := 0; i < 20*cfg.Nand.BlocksPerPlane; i++ {
			if err = ch.EraseWrite(p, i%4, nil); err != nil {
				break
			}
			writes++
		}
		if err == nil {
			t.Fatal("device never wore out")
		}
		if !errors.Is(err, ErrOutOfSpace) {
			t.Fatalf("wear-out error = %v, want ErrOutOfSpace", err)
		}
		w := ch.Wear()
		if w.BadBlocks == 0 {
			t.Fatal("no blocks were retired")
		}
		// Endurance should be roughly fully consumed: with limit 6 and
		// 32 blocks/plane we expect on the order of 32*6 erases per
		// plane before death.
		if writes < 4*cfg.Nand.BlocksPerPlane {
			t.Fatalf("only %d writes before wear-out; DWL/BBM not spreading load", writes)
		}
	})
}

func TestSpareExhaustionTerminal(t *testing.T) {
	cfg := smallConfig()
	cfg.Nand.EraseLimit = 4
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		// Drive the channel to full wear-out.
		var err error
		for i := 0; i < 40*cfg.Nand.BlocksPerPlane; i++ {
			if err = ch.EraseWrite(p, i%4, nil); err != nil {
				break
			}
		}
		if !errors.Is(err, ErrOutOfSpace) {
			t.Fatalf("wear-out error = %v, want ErrOutOfSpace", err)
		}
		// The exhaustion must be terminal for a fresh logical block:
		// every retry reports ErrOutOfSpace immediately, without burning
		// endurance on the planes that still hold spares and without
		// consuming flash time on half-done erases.
		fresh := ch.LogicalBlocks() - 1
		before := ch.Wear()
		start := env.Now()
		for i := 0; i < 5; i++ {
			if err := ch.EraseWrite(p, fresh, nil); !errors.Is(err, ErrOutOfSpace) {
				t.Fatalf("retry %d: %v, want ErrOutOfSpace", i, err)
			}
		}
		if elapsed := env.Now() - start; elapsed >= time.Millisecond {
			t.Fatalf("exhausted retries took %v of flash time; want fail-fast", elapsed)
		}
		after := ch.Wear()
		if after.TotalErase != before.TotalErase || after.BadBlocks != before.BadBlocks {
			t.Fatalf("retries burned endurance: erases %d->%d, bad %d->%d",
				before.TotalErase, after.TotalErase, before.BadBlocks, after.BadBlocks)
		}
		// A write to the unwound block must say "not erased", not panic
		// or pretend a stripe exists.
		if err := ch.Write(p, fresh, nil); !errors.Is(err, ErrNotErased) {
			t.Fatalf("write after failed erase: %v, want ErrNotErased", err)
		}
	})
}

func TestKillRevive(t *testing.T) {
	run(t, smallConfig(), func(env *sim.Env, ch *Channel, p *sim.Proc) {
		data := make([]byte, ch.BlockSize())
		rand.New(rand.NewSource(9)).Read(data)
		if err := ch.EraseWrite(p, 2, data); err != nil {
			t.Fatal(err)
		}
		ch.Kill()
		if ch.Alive() {
			t.Fatal("Alive after Kill")
		}
		start := env.Now()
		if _, err := ch.ReadAt(p, 2, 0, ch.PageSize()); !errors.Is(err, ErrChannelDead) {
			t.Fatalf("read on dead channel: %v, want ErrChannelDead", err)
		}
		if err := ch.EraseWrite(p, 3, nil); !errors.Is(err, ErrChannelDead) {
			t.Fatalf("write on dead channel: %v, want ErrChannelDead", err)
		}
		if env.Now() != start {
			t.Fatalf("dead-channel rejects consumed %v of virtual time", env.Now()-start)
		}
		if ch.DeadRejects() < 2 {
			t.Fatalf("DeadRejects = %d, want >= 2", ch.DeadRejects())
		}
		ch.Revive()
		got, err := ch.ReadAt(p, 2, 0, ch.PageSize())
		if err != nil {
			t.Fatalf("read after revive: %v", err)
		}
		if !bytes.Equal(got, data[:ch.PageSize()]) {
			t.Fatal("data lost across kill/revive")
		}
	})
}

func TestHangStallsQueuedCommands(t *testing.T) {
	cfg := timingConfig()
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		const stall = 50 * time.Millisecond
		ch.Hang(stall)
		p.Wait(time.Millisecond) // let the hang seize the engine
		start := env.Now()
		if _, err := ch.ReadAt(p, 0, 0, ch.PageSize()); err != nil {
			t.Fatal(err)
		}
		if waited := env.Now() - start; waited < stall-2*time.Millisecond {
			t.Fatalf("read finished %v after hang; want >= ~%v", waited, stall)
		}
	})
}

func TestGrowBadBlocksRetiresSpares(t *testing.T) {
	run(t, smallConfig(), func(env *sim.Env, ch *Channel, p *sim.Proc) {
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		before := ch.Wear().BadBlocks
		if n := ch.GrowBadBlocks(8); n != 8 {
			t.Fatalf("GrowBadBlocks(8) = %d", n)
		}
		if got := ch.Wear().BadBlocks - before; got != 8 {
			t.Fatalf("bad blocks grew by %d, want 8", got)
		}
		// Retire every remaining spare: the pool is finite, so the count
		// must come back smaller than asked and the channel must report
		// exhaustion for new blocks — while mapped data stays readable.
		if n := ch.GrowBadBlocks(1 << 20); n >= 1<<20 {
			t.Fatalf("GrowBadBlocks unbounded: %d", n)
		}
		if err := ch.EraseWrite(p, 5, nil); !errors.Is(err, ErrOutOfSpace) {
			t.Fatalf("erase-write after total grown failure: %v, want ErrOutOfSpace", err)
		}
		if _, err := ch.ReadAt(p, 0, 0, ch.PageSize()); err != nil {
			t.Fatalf("mapped data unreadable after grown defects: %v", err)
		}
	})
}

func TestBERBoostBurst(t *testing.T) {
	cfg := smallConfig()
	cfg.ECC = true
	cfg.Nand.BaseBER = 0
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		data := make([]byte, ch.BlockSize())
		rand.New(rand.NewSource(11)).Read(data)
		if err := ch.EraseWrite(p, 1, data); err != nil {
			t.Fatal(err)
		}
		ch.SetBERBoost(1e-2) // ~41 errors/sector: far beyond t=8
		if _, err := ch.ReadAt(p, 1, 0, ch.PageSize()); !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("read during ECC burst: %v, want ErrUncorrectable", err)
		}
		ch.SetBERBoost(0)
		got, err := ch.ReadAt(p, 1, 0, ch.PageSize())
		if err != nil {
			t.Fatalf("read after burst ends: %v", err)
		}
		if !bytes.Equal(got, data[:ch.PageSize()]) {
			t.Fatal("data corrupted after transient ECC burst")
		}
	})
}

func TestECCRoundTripUnderErrors(t *testing.T) {
	cfg := smallConfig()
	cfg.ECC = true
	cfg.Nand.BaseBER = 2e-5 // ~0.08 errors/sector: well within t=8
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		data := make([]byte, ch.BlockSize())
		rand.New(rand.NewSource(7)).Read(data)
		if err := ch.EraseWrite(p, 1, data); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			got, err := ch.ReadAt(p, 1, 0, ch.BlockSize())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("ECC failed to restore data")
			}
		}
		corrected, failures := ch.ECCStats()
		if corrected == 0 {
			t.Fatal("expected some corrected bit errors at BER=2e-5")
		}
		if failures != 0 {
			t.Fatalf("unexpected uncorrectable sectors: %d", failures)
		}
	})
}

func TestECCUncorrectableSurfaces(t *testing.T) {
	cfg := smallConfig()
	cfg.ECC = true
	cfg.Nand.BaseBER = 1e-2 // ~41 errors/sector: far beyond t=8
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		data := make([]byte, ch.BlockSize())
		if err := ch.EraseWrite(p, 1, data); err != nil {
			t.Fatal(err)
		}
		_, err := ch.ReadAt(p, 1, 0, ch.PageSize())
		if !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("read at extreme BER: %v, want ErrUncorrectable", err)
		}
		if _, failures := ch.ECCStats(); failures == 0 {
			t.Fatal("failure counter not incremented")
		}
	})
}

// TestReadOfPayloadlessBlockIsZeroFilled reads, in data mode, a block
// that was programmed without a payload: the read must return exactly
// the bytes asked for, all zero, and must not touch the error-injection
// stream — a later read of real data sees the bit errors it would have
// seen had the empty block never been read.
func TestReadOfPayloadlessBlockIsZeroFilled(t *testing.T) {
	cfg := smallConfig()
	cfg.Nand.BaseBER = 1e-4
	data := make([]byte, cfg.Nand.PageSize*cfg.Nand.PagesPerBlock*cfg.Chips*cfg.Nand.Planes)
	rand.New(rand.NewSource(21)).Read(data)
	var noisy [2][]byte
	for round := range noisy {
		run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
			if err := ch.EraseWrite(p, 0, data); err != nil {
				t.Fatal(err)
			}
			if err := ch.EraseWrite(p, 1, nil); err != nil {
				t.Fatal(err)
			}
			if round == 1 {
				size := 3 * ch.PageSize()
				got, err := ch.ReadAt(p, 1, ch.BlockSize()/2-ch.PageSize(), size) // crosses a plane
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != size || !bytes.Equal(got, make([]byte, size)) {
					t.Fatalf("read of a payload-less block returned %d bytes (want %d, all zero)", len(got), size)
				}
			}
			got, err := ch.ReadAt(p, 0, 0, ch.BlockSize())
			if err != nil {
				t.Fatal(err)
			}
			noisy[round] = got
		})
	}
	if bytes.Equal(noisy[0], data) {
		t.Fatal("no bit errors injected: the test cannot see the RNG stream")
	}
	if !bytes.Equal(noisy[0], noisy[1]) {
		t.Fatal("reading a payload-less block consumed error-injection draws")
	}
}

func TestECCRequiresDataMode(t *testing.T) {
	cfg := smallConfig()
	cfg.ECC = true
	cfg.Nand.RetainData = false
	env := sim.NewEnv()
	if _, err := New(env, cfg); err == nil {
		t.Fatal("ECC without RetainData accepted")
	}
}

// Timing tests use the full-size channel in timing-only mode.

func timingConfig() Config {
	cfg := DefaultConfig()
	cfg.Nand.BlocksPerPlane = 64 // enough blocks, cheap init
	return cfg
}

func TestSustainedReadBandwidth(t *testing.T) {
	cfg := timingConfig()
	var elapsed time.Duration
	total := 0
	elapsed = run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		start := env.Now()
		for i := 0; i < 4; i++ {
			if _, err := ch.ReadAt(p, 0, 0, ch.BlockSize()); err != nil {
				t.Fatal(err)
			}
			total += ch.BlockSize()
		}
		elapsed = env.Now() - start
		mbps := float64(total) / elapsed.Seconds() / 1e6
		// Bus-limited: ~40 MB/s raw minus command overhead => ~37 MB/s.
		if mbps < 35 || mbps > 40 {
			t.Fatalf("read bandwidth %.1f MB/s, want ~37", mbps)
		}
	})
	_ = elapsed
}

func TestSustainedWriteBandwidth(t *testing.T) {
	cfg := timingConfig()
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		// Pre-erase so we measure pure program bandwidth.
		for i := 0; i < 4; i++ {
			if err := ch.Erase(p, i); err != nil {
				t.Fatal(err)
			}
		}
		start := env.Now()
		for i := 0; i < 4; i++ {
			if err := ch.Write(p, i, nil); err != nil {
				t.Fatal(err)
			}
		}
		elapsed := env.Now() - start
		mbps := float64(4*ch.BlockSize()) / elapsed.Seconds() / 1e6
		// Program-limited: 4 planes x 8 KB / 1.4 ms = ~23.4 MB/s.
		if mbps < 21 || mbps > 25 {
			t.Fatalf("write bandwidth %.1f MB/s, want ~23", mbps)
		}
	})
}

func TestEraseWriteLatency(t *testing.T) {
	cfg := timingConfig()
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		start := env.Now()
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		lat := env.Now() - start
		// Paper: SDF 8 MB erase+write is ~383 ms with little variation
		// (Figure 8). Our calibration gives ~360-370 ms.
		if lat < 340*time.Millisecond || lat > 400*time.Millisecond {
			t.Fatalf("erase+write latency %v, want ~360-383ms", lat)
		}
	})
}

// TestWriteStepBudget is the gate on what laying out a default-geometry
// 8 MB write costs the engine: its four planes settle into their TProg
// period after a few worker steps and scheduleWrite fills the other
// ~1000 pulses in closed form (DESIGN.md §10). Stepping every page is
// ~1030 steps. A worker lists only the pulses it stepped; the filled
// ones are its tail's first start and count.
func TestWriteStepBudget(t *testing.T) {
	run(t, timingConfig(), func(env *sim.Env, ch *Channel, p *sim.Proc) {
		for lbn := 0; lbn < 3; lbn++ {
			if err := ch.EraseWrite(p, lbn, nil); err != nil {
				t.Fatal(err)
			}
			if ch.wr.steps > 16 {
				t.Errorf("8 MB write %d: %d worker steps, budget 16", lbn, ch.wr.steps)
			}
			for k := range ch.wr.workers {
				ps := ch.wr.workers[k].pulses
				if len(ps.Stepped) > 4 || ps.Len() != ch.cfg.Nand.PagesPerBlock {
					t.Errorf("8 MB write %d plane %d: %d pulses listed, %d in the tail; want at most 4 listed of %d",
						lbn, k, len(ps.Stepped), ps.Tail, ch.cfg.Nand.PagesPerBlock)
				}
			}
		}
	})
}

// TestReadStepBudget is the gate on what laying out a default-geometry
// 8 MB read costs the engine: each of its four plane runs turns steady
// after its first page and ReadAt lays out the other 255 in closed form
// (DESIGN.md §10). Walking every page is 256 per plane run.
func TestReadStepBudget(t *testing.T) {
	run(t, timingConfig(), func(env *sim.Env, ch *Channel, p *sim.Proc) {
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			before := ch.walked
			if _, err := ch.ReadAt(p, 0, 0, ch.BlockSize()); err != nil {
				t.Fatal(err)
			}
			if walked, runs := ch.walked-before, len(ch.planes); walked > 4*runs {
				t.Errorf("8 MB read %d: %d pages walked over %d plane runs, budget %d per run", i, walked, runs, 4)
			}
		}
	})
}

func TestEraseThroughputScale(t *testing.T) {
	cfg := timingConfig()
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		start := env.Now()
		const n = 8
		for i := 0; i < n; i++ {
			if err := ch.Erase(p, i); err != nil {
				t.Fatal(err)
			}
		}
		elapsed := env.Now() - start
		gbps := float64(n*ch.BlockSize()) / elapsed.Seconds() / 1e9
		// One channel erases 8 MB per ~6 ms (two planes per chip in
		// sequence, chips parallel) => ~1.3 GB/s; 44 channels give the
		// paper's ~40 GB/s order of magnitude.
		if gbps < 1.0 || gbps > 1.7 {
			t.Fatalf("erase throughput %.2f GB/s per channel, want ~1.3", gbps)
		}
	})
}

func TestSmallReadLatency(t *testing.T) {
	cfg := timingConfig()
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		start := env.Now()
		if _, err := ch.ReadAt(p, 0, 0, ch.PageSize()); err != nil {
			t.Fatal(err)
		}
		lat := env.Now() - start
		// tRead 75 µs + bus 8 KB at 40 MB/s + 10 µs = ~290 µs.
		want := 75*time.Microsecond + 10*time.Microsecond + sim.ByteTime(8<<10, 40e6)
		if lat < want-time.Microsecond || lat > want+time.Microsecond {
			t.Fatalf("8 KB read latency = %v, want ~%v", lat, want)
		}
	})
}

func TestChannelSerializesRequests(t *testing.T) {
	cfg := timingConfig()
	env := sim.NewEnv()
	ch, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ends []time.Duration
	setup := env.Go("setup", func(p *sim.Proc) {
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Error(err)
		}
	})
	for i := 0; i < 2; i++ {
		env.Go("reader", func(p *sim.Proc) {
			p.Join(setup)
			if _, err := ch.ReadAt(p, 0, 0, ch.PageSize()); err != nil {
				t.Error(err)
			}
			ends = append(ends, env.Now())
		})
	}
	env.Run()
	env.Close()
	if len(ends) != 2 {
		t.Fatalf("ends = %v", ends)
	}
	gap := ends[1] - ends[0]
	if gap < 200*time.Microsecond {
		t.Fatalf("second read finished %v after first; engine not serializing", gap)
	}
}

func TestCountersTrackTraffic(t *testing.T) {
	run(t, smallConfig(), func(env *sim.Env, ch *Channel, p *sim.Proc) {
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ch.ReadAt(p, 0, 0, ch.PageSize()); err != nil {
			t.Fatal(err)
		}
		r, w, e := ch.Counters()
		if r != int64(ch.PageSize()) || w != int64(ch.BlockSize()) || e != 1 {
			t.Fatalf("counters = %d/%d/%d", r, w, e)
		}
	})
}

func TestScanFilterTimingEqualsFullRead(t *testing.T) {
	cfg := timingConfig()
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		start := env.Now()
		if _, err := ch.ReadAt(p, 0, 0, ch.BlockSize()); err != nil {
			t.Fatal(err)
		}
		readTime := env.Now() - start
		start = env.Now()
		matched, err := ch.ScanFilter(p, 0, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		scanTime := env.Now() - start
		if scanTime != readTime {
			t.Fatalf("scan %v vs read %v; flash cost must match", scanTime, readTime)
		}
		if matched != ch.BlockSize()/10 {
			t.Fatalf("matched = %d, want %d", matched, ch.BlockSize()/10)
		}
	})
}

func TestScanFilterClampsSelectivity(t *testing.T) {
	cfg := timingConfig()
	run(t, cfg, func(env *sim.Env, ch *Channel, p *sim.Proc) {
		if err := ch.EraseWrite(p, 0, nil); err != nil {
			t.Fatal(err)
		}
		matched, err := ch.ScanFilter(p, 0, 2.5)
		if err != nil || matched != ch.BlockSize() {
			t.Fatalf("selectivity > 1: %d/%v", matched, err)
		}
		matched, err = ch.ScanFilter(p, 0, -1)
		if err != nil || matched != 0 {
			t.Fatalf("selectivity < 0: %d/%v", matched, err)
		}
	})
}
