package ccdb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/core"
	"sdf/internal/sim"
	"sdf/internal/ssd"
)

// sdfStore builds a small SDF-backed store; data mode if retain.
func sdfStore(t *testing.T, env *sim.Env, retain bool) *SDFStore {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Channels = 4
	cfg.Channel.Nand.BlocksPerPlane = 16
	cfg.Channel.Nand.PagesPerBlock = 16 // 128 KB erase block, 512 KB SDF block
	cfg.Channel.Nand.RetainData = retain
	cfg.Channel.SparePerPlane = 2
	d, err := core.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewSDFStore(blocklayer.New(env, d, blocklayer.DefaultConfig()))
}

func sliceConfig(store Storage, dataMode bool) Config {
	return Config{PatchBytes: store.BlockSize(), RunsPerTier: 4, DataMode: dataMode}
}

func TestPutGetFromMemtable(t *testing.T) {
	env := sim.NewEnv()
	store := sdfStore(t, env, true)
	s := NewSlice(env, store, sliceConfig(store, true))
	w := env.Go("t", func(p *sim.Proc) {
		if err := s.Put(p, "alpha", []byte("hello"), 5); err != nil {
			t.Error(err)
			return
		}
		v, size, err := s.Get(p, "alpha")
		if err != nil || size != 5 || !bytes.Equal(v, []byte("hello")) {
			t.Errorf("Get = %q/%d/%v", v, size, err)
		}
	})
	env.RunUntilDone(w)
	st := s.Stats()
	env.Close()
	if st.GetsFromMem != 1 {
		t.Fatalf("GetsFromMem = %d, want 1", st.GetsFromMem)
	}
}

func TestFlushAndGetFromPatch(t *testing.T) {
	env := sim.NewEnv()
	store := sdfStore(t, env, true)
	s := NewSlice(env, store, sliceConfig(store, true))
	val := bytes.Repeat([]byte{7}, 1000)
	w := env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("key%03d", i)
			if err := s.Put(p, key, val, len(val)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := s.Flush(p); err != nil {
			t.Error(err)
			return
		}
		if s.MemBytes() != 0 {
			t.Errorf("MemBytes = %d after flush", s.MemBytes())
		}
		v, size, err := s.Get(p, "key013")
		if err != nil || size != 1000 || !bytes.Equal(v, val) {
			t.Errorf("Get from patch failed: size=%d err=%v", size, err)
		}
	})
	env.RunUntilDone(w)
	st := s.Stats()
	env.Close()
	if st.Flushes != 1 || st.PatchesWritten != 1 {
		t.Fatalf("flushes/patches = %d/%d, want 1/1", st.Flushes, st.PatchesWritten)
	}
}

func TestGetMissingKey(t *testing.T) {
	env := sim.NewEnv()
	store := sdfStore(t, env, true)
	s := NewSlice(env, store, sliceConfig(store, true))
	w := env.Go("t", func(p *sim.Proc) {
		if _, _, err := s.Get(p, "ghost"); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing key: %v", err)
		}
		if err := s.Put(p, "real", nil, 100); err != nil {
			t.Error(err)
			return
		}
		if err := s.Flush(p); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := s.Get(p, "ghost"); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing key after flush: %v", err)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestOverwriteNewestWins(t *testing.T) {
	env := sim.NewEnv()
	store := sdfStore(t, env, true)
	s := NewSlice(env, store, sliceConfig(store, true))
	w := env.Go("t", func(p *sim.Proc) {
		if err := s.Put(p, "k", []byte("old"), 3); err != nil {
			t.Error(err)
			return
		}
		if err := s.Flush(p); err != nil {
			t.Error(err)
			return
		}
		if err := s.Put(p, "k", []byte("newer"), 5); err != nil {
			t.Error(err)
			return
		}
		v, _, err := s.Get(p, "k")
		if err != nil || string(v) != "newer" {
			t.Errorf("Get = %q/%v, want newer (memtable)", v, err)
		}
		if err := s.Flush(p); err != nil {
			t.Error(err)
			return
		}
		v, _, err = s.Get(p, "k")
		if err != nil || string(v) != "newer" {
			t.Errorf("Get = %q/%v, want newer (two patches)", v, err)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestAutoFlushOnFullContainer(t *testing.T) {
	env := sim.NewEnv()
	store := sdfStore(t, env, false)
	s := NewSlice(env, store, sliceConfig(store, false))
	valSize := store.BlockSize() / 4
	w := env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if err := s.Put(p, fmt.Sprintf("k%02d", i), nil, valSize); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.RunUntilDone(w)
	st := s.Stats()
	env.Close()
	if st.Flushes < 1 {
		t.Fatal("container never auto-flushed")
	}
}

func TestCompactionMergesRuns(t *testing.T) {
	env := sim.NewEnv()
	store := sdfStore(t, env, true)
	cfg := sliceConfig(store, true)
	cfg.RunsPerTier = 3
	s := NewSlice(env, store, cfg)
	val := bytes.Repeat([]byte{9}, 2000)
	w := env.Go("t", func(p *sim.Proc) {
		// Three flushes of overlapping key sets trigger one merge.
		for f := 0; f < 3; f++ {
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("key%03d", i*3+f)
				if err := s.Put(p, key, val, len(val)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Flush(p); err != nil {
				t.Error(err)
				return
			}
		}
		// Let the compactor run.
		p.Wait(5 * time.Second)
		// Every key must remain readable afterwards.
		for i := 0; i < 30; i++ {
			key := fmt.Sprintf("key%03d", i)
			v, _, err := s.Get(p, key)
			if err != nil || !bytes.Equal(v, val) {
				t.Errorf("key %s after compaction: %v", key, err)
				return
			}
		}
	})
	env.RunUntilDone(w)
	st := s.Stats()
	env.Close()
	if st.Compactions < 1 {
		t.Fatal("compaction never ran")
	}
	if st.CompactionReads < 3 {
		t.Fatalf("CompactionReads = %d, want >= 3", st.CompactionReads)
	}
	if st.PatchesFreed < 3 {
		t.Fatalf("PatchesFreed = %d, want >= 3 (inputs retired)", st.PatchesFreed)
	}
}

func TestCompactionDeduplicates(t *testing.T) {
	env := sim.NewEnv()
	store := sdfStore(t, env, true)
	cfg := sliceConfig(store, true)
	cfg.RunsPerTier = 2
	s := NewSlice(env, store, cfg)
	w := env.Go("t", func(p *sim.Proc) {
		if err := s.Put(p, "dup", []byte("v1"), 2); err != nil {
			t.Error(err)
			return
		}
		if err := s.Flush(p); err != nil {
			t.Error(err)
			return
		}
		if err := s.Put(p, "dup", []byte("v2!"), 3); err != nil {
			t.Error(err)
			return
		}
		if err := s.Flush(p); err != nil {
			t.Error(err)
			return
		}
		p.Wait(5 * time.Second)
		v, size, err := s.Get(p, "dup")
		if err != nil || size != 3 || string(v) != "v2!" {
			t.Errorf("Get after dedup = %q/%d/%v, want v2!", v, size, err)
		}
	})
	env.RunUntilDone(w)
	env.Close()
	if s.Patches() != 1 {
		t.Fatalf("patches = %d after merge, want 1", s.Patches())
	}
}

func TestKeysVisibleDuringCompaction(t *testing.T) {
	// A Get issued mid-merge must still find its key.
	env := sim.NewEnv()
	store := sdfStore(t, env, true)
	cfg := sliceConfig(store, true)
	cfg.RunsPerTier = 2
	s := NewSlice(env, store, cfg)
	w := env.Go("t", func(p *sim.Proc) {
		for f := 0; f < 2; f++ {
			for i := 0; i < 5; i++ {
				key := fmt.Sprintf("k%d-%d", f, i)
				if err := s.Put(p, key, []byte("x"), 1); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Flush(p); err != nil {
				t.Error(err)
				return
			}
		}
		// Compaction is now running; probe continuously while it does.
		for i := 0; i < 50; i++ {
			p.Wait(2 * time.Millisecond)
			if _, _, err := s.Get(p, "k0-3"); err != nil {
				t.Errorf("key invisible at %v: %v", env.Now(), err)
				return
			}
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestScanReadsEverything(t *testing.T) {
	env := sim.NewEnv()
	store := sdfStore(t, env, false)
	s := NewSlice(env, store, sliceConfig(store, false))
	valSize := 10000
	const n = 100
	w := env.Go("t", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := s.Put(p, fmt.Sprintf("key%04d", i), nil, valSize); err != nil {
				t.Error(err)
				return
			}
		}
		if err := s.Flush(p); err != nil {
			t.Error(err)
			return
		}
		total, err := s.Scan(p, 6)
		if err != nil {
			t.Error(err)
			return
		}
		if total < int64(n*valSize) {
			t.Errorf("Scan read %d bytes, want >= %d", total, n*valSize)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestScanParallelismSpeedsUp(t *testing.T) {
	measure := func(threads int) time.Duration {
		env := sim.NewEnv()
		store := sdfStore(t, env, false)
		s := NewSlice(env, store, sliceConfig(store, false))
		var elapsed time.Duration
		w := env.Go("t", func(p *sim.Proc) {
			// Several patches spread across the 4 channels.
			for f := 0; f < 8; f++ {
				for i := 0; i < 4; i++ {
					key := fmt.Sprintf("k%d-%d", f, i)
					if err := s.Put(p, key, nil, store.BlockSize()/5); err != nil {
						t.Error(err)
						return
					}
				}
				if err := s.Flush(p); err != nil {
					t.Error(err)
					return
				}
			}
			start := env.Now()
			if _, err := s.Scan(p, threads); err != nil {
				t.Error(err)
				return
			}
			elapsed = env.Now() - start
		})
		env.RunUntilDone(w)
		env.Close()
		return elapsed
	}
	one := measure(1)
	six := measure(6)
	if six >= one {
		t.Fatalf("6-thread scan (%v) not faster than 1-thread (%v)", six, one)
	}
}

func TestRejectsBadValues(t *testing.T) {
	env := sim.NewEnv()
	store := sdfStore(t, env, true)
	s := NewSlice(env, store, sliceConfig(store, true))
	w := env.Go("t", func(p *sim.Proc) {
		if err := s.Put(p, "k", []byte("abc"), 99); !errors.Is(err, ErrBadValue) {
			t.Errorf("size mismatch: %v", err)
		}
		if err := s.Put(p, "k", nil, store.BlockSize()+1); !errors.Is(err, ErrTooLarge) {
			t.Errorf("oversized value: %v", err)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestSliceOnConventionalSSD(t *testing.T) {
	env := sim.NewEnv()
	prof := ssd.HuaweiGen3(0.25).ScaleBlocks(16)
	dev, err := ssd.New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	store := NewSSDStore(dev, 8<<20)
	s := NewSlice(env, store, sliceConfig(store, false))
	w := env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			if err := s.Put(p, fmt.Sprintf("key%03d", i), nil, 500_000); err != nil {
				t.Error(err)
				return
			}
		}
		if err := s.Flush(p); err != nil {
			t.Error(err)
			return
		}
		if _, size, err := s.Get(p, "key007"); err != nil || size != 500_000 {
			t.Errorf("Get = %d/%v", size, err)
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestSSDStoreFreeRecyclesExtents(t *testing.T) {
	env := sim.NewEnv()
	prof := ssd.HuaweiGen3(0.25).ScaleBlocks(16)
	dev, err := ssd.New(env, prof)
	if err != nil {
		t.Fatal(err)
	}
	store := NewSSDStore(dev, 8<<20)
	slots := dev.Capacity() / (8 << 20)
	w := env.Go("t", func(p *sim.Proc) {
		// Write and free more extents than physically exist.
		for i := int64(0); i < slots+5; i++ {
			ref, err := store.Write(p, nil)
			if err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			if err := store.Free(p, ref); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.RunUntilDone(w)
	env.Close()
}

func TestGetLatencyIsOneRead(t *testing.T) {
	// §2.4: all patch metadata is in DRAM, so a Get costs one storage
	// read — for an 8 KB value, roughly one page read plus overheads.
	env := sim.NewEnv()
	store := sdfStore(t, env, false)
	s := NewSlice(env, store, sliceConfig(store, false))
	var lat time.Duration
	w := env.Go("t", func(p *sim.Proc) {
		if err := s.Put(p, "k", nil, 8192); err != nil {
			t.Error(err)
			return
		}
		if err := s.Flush(p); err != nil {
			t.Error(err)
			return
		}
		start := env.Now()
		if _, _, err := s.Get(p, "k"); err != nil {
			t.Error(err)
			return
		}
		lat = env.Now() - start
	})
	env.RunUntilDone(w)
	env.Close()
	// One or two page reads: well under 1 ms.
	if lat > time.Millisecond {
		t.Fatalf("Get latency %v, want < 1ms (single read)", lat)
	}
}

func TestManyKeysAcrossTiers(t *testing.T) {
	env := sim.NewEnv()
	store := sdfStore(t, env, true)
	cfg := sliceConfig(store, true)
	cfg.RunsPerTier = 3
	s := NewSlice(env, store, cfg)
	rng := rand.New(rand.NewSource(3))
	want := make(map[string]byte)
	w := env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			key := fmt.Sprintf("key%03d", rng.Intn(120))
			b := byte(rng.Intn(256))
			val := bytes.Repeat([]byte{b}, 3000)
			if err := s.Put(p, key, val, len(val)); err != nil {
				t.Error(err)
				return
			}
			want[key] = b
			if i%40 == 39 {
				if err := s.Flush(p); err != nil {
					t.Error(err)
					return
				}
			}
		}
		p.Wait(20 * time.Second) // drain compactions
		for key, b := range want {
			v, _, err := s.Get(p, key)
			if err != nil {
				t.Errorf("key %s: %v", key, err)
				return
			}
			if len(v) != 3000 || v[0] != b || v[2999] != b {
				t.Errorf("key %s: wrong value", key)
				return
			}
		}
	})
	env.RunUntilDone(w)
	env.Close()
	if got := s.Keys(); got != len(want) {
		t.Fatalf("Keys() = %d, want %d", got, len(want))
	}
}

func TestKeysVisibleDuringFlush(t *testing.T) {
	// A Get while the patch write is in flight finds the key in the
	// flushing batch; a Put of that key meanwhile lands in the fresh
	// memtable and wins from then on, through the next flush too.
	env := sim.NewEnv()
	store := sdfStore(t, env, true)
	s := NewSlice(env, store, sliceConfig(store, true))
	flusher := env.Go("flusher", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err := s.Put(p, fmt.Sprintf("k%d", i), []byte("old"), 3); err != nil {
				t.Error(err)
				return
			}
		}
		if err := s.Flush(p); err != nil {
			t.Error(err)
		}
	})
	w := env.Go("t", func(p *sim.Proc) {
		p.Wait(time.Microsecond)
		if s.flushing == nil {
			t.Error("no flush in flight")
			return
		}
		if v, size, err := s.Get(p, "k3"); err != nil || size != 3 || string(v) != "old" {
			t.Errorf("Get during the flush = %q/%d/%v, want the batch's value", v, size, err)
		}
		if err := s.Put(p, "k3", []byte("newer"), 5); err != nil {
			t.Error(err)
			return
		}
		p.Join(flusher)
		for round := 0; round < 2; round++ {
			if v, size, err := s.Get(p, "k3"); err != nil || size != 5 || string(v) != "newer" {
				t.Errorf("round %d: Get after the flush = %q/%d/%v, want the later Put's value", round, v, size, err)
			}
			if err := s.Flush(p); err != nil {
				t.Error(err)
			}
		}
		if v, _, err := s.Get(p, "k1"); err != nil || string(v) != "old" {
			t.Errorf("Get of a flushed key = %q/%v", v, err)
		}
	})
	env.RunUntilDone(w)
	st := s.Stats()
	env.Close()
	if st.Flushes != 2 {
		t.Fatalf("Flushes = %d, want 2", st.Flushes)
	}
}

func TestFailedFlushKeepsEveryKey(t *testing.T) {
	// A flush whose patch write fails (every channel dead) returns its
	// batch to the memtable; more Puts, some overwriting it, follow;
	// then a flush succeeds. Every key reads back with its last size and
	// bytes, from the memtable and then from the patches.
	env := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.Channels = 4
	cfg.Channel.Nand.BlocksPerPlane = 16
	cfg.Channel.Nand.PagesPerBlock = 16
	cfg.Channel.Nand.RetainData = true
	cfg.Channel.SparePerPlane = 2
	d, err := core.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := NewSDFStore(blocklayer.New(env, d, blocklayer.DefaultConfig()))
	s := NewSlice(env, store, sliceConfig(store, true))
	rng := rand.New(rand.NewSource(5))
	want := map[string][]byte{}
	put := func(p *sim.Proc, key string) {
		v := make([]byte, 1+rng.Intn(3000))
		rng.Read(v)
		if err := s.Put(p, key, v, len(v)); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
		want[key] = v
	}
	check := func(p *sim.Proc, when string) {
		keys := make([]string, 0, len(want))
		for key := range want {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			v := want[key]
			got, size, err := s.Get(p, key)
			if err != nil || size != len(v) || !bytes.Equal(got, v) {
				t.Errorf("%s: Get %s = %d bytes (size %d), %v; want %d bytes", when, key, len(got), size, err, len(v))
			}
		}
	}
	w := env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			put(p, fmt.Sprintf("a%02d", i))
		}
		for i := 0; i < d.Channels(); i++ {
			d.Channel(i).Kill()
		}
		if err := s.Flush(p); err == nil {
			t.Error("flush over dead channels succeeded")
		}
		check(p, "after the failed flush")
		for i := 0; i < 40; i++ {
			put(p, fmt.Sprintf("a%02d", rng.Intn(60)))
		}
		for i := 0; i < d.Channels(); i++ {
			d.Channel(i).Revive()
		}
		check(p, "before the retry")
		if err := s.Flush(p); err != nil {
			t.Errorf("retried flush: %v", err)
		}
		if s.MemBytes() != 0 {
			t.Errorf("memtable holds %d bytes after the flush", s.MemBytes())
		}
		check(p, "after the retry")
	})
	env.RunUntilDone(w)
	env.Close()
}
