package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/core"
	"sdf/internal/sim"
)

func TestUniformSizeBounds(t *testing.T) {
	f := func(a, b uint16) bool {
		min, max := int(a)+1, int(b)+1
		d := Uniform(min, max)
		if max < min {
			min, max = max, min
		}
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 50; i++ {
			v := d(rng)
			if v < min || v > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperWriteMixRange(t *testing.T) {
	d := PaperWriteMix()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := d(rng)
		if v < 100<<10 || v > 1<<20 {
			t.Fatalf("size %d outside 100 KB..1 MB", v)
		}
	}
}

func TestKeysUniqueAndPickable(t *testing.T) {
	k := NewKeys("t", 500, 1)
	if len(k.keys) != 500 {
		t.Fatalf("len(keys) = %d", len(k.keys))
	}
	seen := make(map[string]bool)
	for _, key := range k.All() {
		if seen[key] {
			t.Fatalf("duplicate key %s", key)
		}
		seen[key] = true
	}
	for i := 0; i < 100; i++ {
		if !seen[k.Pick()] {
			t.Fatal("Pick returned a key outside the population")
		}
	}
}

func TestPreloadMakesKeysReadable(t *testing.T) {
	env := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.Channels = 4
	cfg.Channel.Nand.BlocksPerPlane = 16
	cfg.Channel.Nand.PagesPerBlock = 16
	cfg.Channel.SparePerPlane = 2
	dev, err := core.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := ccdb.NewSDFStore(blocklayer.New(env, dev, blocklayer.DefaultConfig()))
	cfgSlice := ccdb.Config{PatchBytes: store.BlockSize(), RunsPerTier: 4}
	s1 := ccdb.NewSlice(env, store, cfgSlice)
	s2 := ccdb.NewSlice(env, store, cfgSlice)
	k1 := NewKeys("a", 30, 1)
	k2 := NewKeys("b", 30, 2)
	w := env.Go("t", func(p *sim.Proc) {
		if err := PreloadParallel(p, env, []*ccdb.Slice{s1, s2}, []*Keys{k1, k2}, 10000); err != nil {
			t.Error(err)
			return
		}
		for _, pair := range []struct {
			s *ccdb.Slice
			k *Keys
		}{{s1, k1}, {s2, k2}} {
			for _, key := range pair.k.All() {
				if _, size, err := pair.s.Get(p, key); err != nil || size != 10000 {
					t.Errorf("key %s: size=%d err=%v", key, size, err)
					return
				}
			}
		}
	})
	env.RunUntilDone(w)
	env.Close()
}
