package blocklayer

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"sdf/internal/core"
	"sdf/internal/sim"
)

// smallDevice returns a 4-channel SDF with tiny blocks; data mode if
// retain is true.
func smallDevice(t *testing.T, env *sim.Env, retain bool) *core.Device {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Channels = 4
	cfg.Channel.Nand.BlocksPerPlane = 8
	cfg.Channel.Nand.PagesPerBlock = 8
	cfg.Channel.Nand.RetainData = retain
	cfg.Channel.SparePerPlane = 2
	d, err := core.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWriteReadRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, true)
	l := New(env, d, DefaultConfig())
	data := make([]byte, l.BlockSize())
	rand.New(rand.NewSource(1)).Read(data)
	w := env.Go("t", func(p *sim.Proc) {
		h, err := l.Write(p, 42, data)
		if err != nil {
			t.Error(err)
			return
		}
		if h.Channel != 42%4 {
			t.Errorf("channel = %d, want %d", h.Channel, 42%4)
		}
		got, err := l.Read(p, 42, 0, l.BlockSize())
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("read-back mismatch")
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestConsecutiveIDsRoundRobin(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, false)
	l := New(env, d, DefaultConfig())
	defer env.Close()
	for id := BlockID(0); id < 8; id++ {
		if got := l.ChannelOf(id); got != int(id)%4 {
			t.Fatalf("ChannelOf(%d) = %d, want %d", id, got, id%4)
		}
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, false)
	l := New(env, d, DefaultConfig())
	w := env.Go("t", func(p *sim.Proc) {
		if _, err := l.Write(p, 7, nil); err != nil {
			t.Error(err)
		}
		if _, err := l.Write(p, 7, nil); !errors.Is(err, ErrDuplicateID) {
			t.Errorf("duplicate write: %v", err)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestUnknownIDErrors(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, false)
	l := New(env, d, DefaultConfig())
	w := env.Go("t", func(p *sim.Proc) {
		if _, err := l.Read(p, 99, 0, l.PageSize()); !errors.Is(err, ErrUnknownID) {
			t.Errorf("read unknown: %v", err)
		}
		if err := l.Free(p, 99); !errors.Is(err, ErrUnknownID) {
			t.Errorf("free unknown: %v", err)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestBackgroundEraseAvoidsInlineErase(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, false)
	l := New(env, d, DefaultConfig())
	// Give the erasers idle time to prepare the initial pool.
	env.RunUntil(2 * time.Second)
	w := env.Go("t", func(p *sim.Proc) {
		for id := BlockID(0); id < 8; id++ {
			if _, err := l.Write(p, id, nil); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.RunUntilDone(w)
	_, _, inline, background := l.Stats()
	env.Close()
	if inline != 0 {
		t.Fatalf("inline erases = %d, want 0 (pool was pre-erased)", inline)
	}
	if background == 0 {
		t.Fatal("background eraser never ran")
	}
}

func TestInlineEraseWithoutBackground(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, false)
	cfg := DefaultConfig()
	cfg.BackgroundErase = false
	l := New(env, d, cfg)
	w := env.Go("t", func(p *sim.Proc) {
		if _, err := l.Write(p, 1, nil); err != nil {
			t.Error(err)
		}
	})
	env.RunUntilDone(w)
	_, _, inline, background := l.Stats()
	env.Close()
	if inline != 1 || background != 0 {
		t.Fatalf("erases inline/background = %d/%d, want 1/0", inline, background)
	}
}

func TestEraseAheadShortensWriteLatency(t *testing.T) {
	// A write into a pre-erased block skips the ~6 ms erase. The
	// difference is visible in single-write latency.
	measure := func(background bool) time.Duration {
		env := sim.NewEnv()
		d := smallDevice(t, env, false)
		cfg := DefaultConfig()
		cfg.BackgroundErase = background
		l := New(env, d, cfg)
		if background {
			env.RunUntil(time.Second) // let the eraser prepare blocks
		}
		var lat time.Duration
		w := env.Go("t", func(p *sim.Proc) {
			start := env.Now()
			if _, err := l.Write(p, 3, nil); err != nil {
				t.Error(err)
			}
			lat = env.Now() - start
		})
		env.RunUntilDone(w)
		env.Close()
		return lat
	}
	withBg := measure(true)
	without := measure(false)
	if without-withBg < 5*time.Millisecond {
		t.Fatalf("erase-ahead saved only %v, want ~6 ms (with=%v, without=%v)",
			without-withBg, withBg, without)
	}
}

func TestFreeAndRecycle(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, false)
	l := New(env, d, DefaultConfig())
	blocks := d.BlocksPerChannel()
	w := env.Go("t", func(p *sim.Proc) {
		// Write and free more blocks than one channel holds: IDs all
		// hash to channel 0 (multiples of 4).
		for i := 0; i < 3*blocks; i++ {
			id := BlockID(i * 4)
			if _, err := l.Write(p, id, nil); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			if err := l.Free(p, id); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestChannelExhaustion(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, false)
	l := New(env, d, DefaultConfig())
	blocks := d.BlocksPerChannel()
	w := env.Go("t", func(p *sim.Proc) {
		var err error
		for i := 0; ; i++ {
			if _, err = l.Write(p, BlockID(i*4), nil); err != nil {
				break
			}
			if i > blocks+1 {
				t.Error("wrote more blocks than the channel holds")
				return
			}
		}
		if !errors.Is(err, ErrNoSpace) {
			t.Errorf("exhaustion error = %v, want ErrNoSpace", err)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestLookup(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, false)
	l := New(env, d, DefaultConfig())
	w := env.Go("t", func(p *sim.Proc) {
		if _, ok := l.Lookup(5); ok {
			t.Error("lookup of unwritten ID succeeded")
		}
		h, err := l.Write(p, 5, nil)
		if err != nil {
			t.Error(err)
			return
		}
		got, ok := l.Lookup(5)
		if !ok || got != h {
			t.Errorf("Lookup = %v/%v, want %v", got, ok, h)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestQuarantineWindowExcludesWrites(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, false)
	l := New(env, d, DefaultConfig())
	env.RunUntil(2 * time.Second) // pre-erase
	w := env.Go("t", func(p *sim.Proc) {
		if _, err := l.Write(p, 2, nil); err != nil {
			t.Error(err)
			return
		}
		d.Channel(2).Kill()
		// The dead engine quarantines at the first failure; each retry
		// re-arms the window.
		if _, err := l.Read(p, 2, 0, l.PageSize()); err == nil {
			t.Error("read on dead channel succeeded")
		}
		d.Channel(2).Revive()
		// Still inside the quarantine window: the hash channel (2) is
		// skipped even though the engine is back.
		h, err := l.Write(p, 6, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if h.Channel == 2 {
			t.Error("write placed on quarantined channel")
		}
		p.Wait(quarantineWindow)
		h2, err := l.Write(p, 10, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if h2.Channel != 2 {
			t.Errorf("write after window placed on channel %d, want 2", h2.Channel)
		}
	})
	env.RunUntilDone(w)
	env.Close()
	q, _, skips := l.HealthStats()
	if q == 0 || skips == 0 {
		t.Fatalf("HealthStats quarantines=%d placementSkips=%d, want both > 0", q, skips)
	}
}

func TestReadRetryRecoversRevivedChannel(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, true)
	l := New(env, d, DefaultConfig())
	data := make([]byte, l.BlockSize())
	rand.New(rand.NewSource(3)).Read(data)
	w := env.Go("t", func(p *sim.Proc) {
		if _, err := l.Write(p, 1, data); err != nil {
			t.Error(err)
			return
		}
		d.Channel(1).Kill()
		// Revive mid-backoff: the first retry (after the default 50 µs)
		// must find the engine back and serve the data.
		env.Schedule(40*time.Microsecond, func() { d.Channel(1).Revive() })
		got, err := l.Read(p, 1, 0, l.PageSize())
		if err != nil {
			t.Errorf("read with retry: %v", err)
			return
		}
		if !bytes.Equal(got, data[:l.PageSize()]) {
			t.Error("read-back mismatch after revival")
		}
	})
	env.RunUntilDone(w)
	env.Close()
	_, retries, _ := l.HealthStats()
	if retries == 0 {
		t.Fatal("no read retries recorded")
	}
}

func TestEraserSurvivesDeadChannel(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, false)
	l := New(env, d, DefaultConfig())
	env.RunUntil(2 * time.Second) // pre-erase
	w := env.Go("t", func(p *sim.Proc) {
		if _, err := l.Write(p, 0, nil); err != nil {
			t.Error(err)
			return
		}
		d.Channel(0).Kill()
		if err := l.Free(p, 0); err != nil {
			t.Error(err)
		}
	})
	env.RunUntilDone(w)
	// The freed block cannot be erased while the engine is dead. The
	// eraser must park rather than poll, or this Run would never
	// return; the backlog must survive, not be dropped.
	env.Run()
	if _, dirty := l.FreeBlocks(0); dirty != 1 {
		t.Fatalf("dirty pool = %d while dead, want 1 (block dropped?)", dirty)
	}
	d.Channel(0).Revive()
	w2 := env.Go("t2", func(p *sim.Proc) {
		// A served command on the revived channel is what wakes the
		// parked eraser.
		if _, err := l.Write(p, 4, nil); err != nil {
			t.Error(err)
		}
	})
	env.RunUntilDone(w2)
	env.Run() // idle time for the eraser to drain the backlog
	if _, dirty := l.FreeBlocks(0); dirty != 0 {
		t.Fatalf("dirty pool = %d after revival, want 0", dirty)
	}
	env.Close()
}

func TestLeastLoadedPlacementSpreadsWriters(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, false)
	cfg := DefaultConfig()
	cfg.Placement = PlacementLeastLoaded
	l := New(env, d, cfg)
	env.RunUntil(time.Second) // pre-erase
	// 4 concurrent writers whose IDs all HASH to channel 0; the
	// least-loaded policy must still use all 4 channels.
	var handles []Handle
	var workers []*sim.Proc
	for i := 0; i < 4; i++ {
		id := BlockID(i * 4) // all ≡ 0 mod 4
		w := env.Go("writer", func(p *sim.Proc) {
			h, err := l.Write(p, id, nil)
			if err != nil {
				t.Error(err)
				return
			}
			handles = append(handles, h)
		})
		workers = append(workers, w)
	}
	waiter := env.Go("wait", func(p *sim.Proc) {
		for _, w := range workers {
			p.Join(w)
		}
	})
	env.RunUntilDone(waiter)
	env.Close()
	channels := make(map[int]bool)
	for _, h := range handles {
		channels[h.Channel] = true
	}
	if len(channels) != 4 {
		t.Fatalf("least-loaded used %d channels, want 4 (handles %v)", len(channels), handles)
	}
}

func TestLeastLoadedFasterThanHashUnderCollisions(t *testing.T) {
	measure := func(policy Placement) time.Duration {
		env := sim.NewEnv()
		d := smallDevice(t, env, false)
		cfg := DefaultConfig()
		cfg.Placement = policy
		l := New(env, d, cfg)
		env.RunUntil(time.Second)
		start := env.Now()
		var workers []*sim.Proc
		for i := 0; i < 4; i++ {
			id := BlockID(i * 4) // colliding hash
			w := env.Go("writer", func(p *sim.Proc) {
				if _, err := l.Write(p, id, nil); err != nil {
					t.Error(err)
				}
			})
			workers = append(workers, w)
		}
		waiter := env.Go("wait", func(p *sim.Proc) {
			for _, w := range workers {
				p.Join(w)
			}
		})
		env.RunUntilDone(waiter)
		elapsed := env.Now() - start
		env.Close()
		return elapsed
	}
	hash := measure(PlacementHash)
	lb := measure(PlacementLeastLoaded)
	// Hash serializes 4 writes on one channel; least-loaded runs them
	// in parallel on 4 channels: ~4x faster.
	if lb*3 > hash {
		t.Fatalf("least-loaded %v not ~4x faster than hash %v", lb, hash)
	}
}

func TestLeastLoadedReadsFollowPlacement(t *testing.T) {
	env := sim.NewEnv()
	d := smallDevice(t, env, true)
	cfg := DefaultConfig()
	cfg.Placement = PlacementLeastLoaded
	l := New(env, d, cfg)
	data := make([]byte, l.BlockSize())
	for i := range data {
		data[i] = byte(i * 7)
	}
	w := env.Go("t", func(p *sim.Proc) {
		if _, err := l.Write(p, 99, data); err != nil {
			t.Error(err)
			return
		}
		got, err := l.Read(p, 99, 0, l.BlockSize())
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("read-back under least-loaded placement: %v", err)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}
