package blocklayer

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"sdf/internal/core"
	"sdf/internal/sim"
)

// smallCoreConfig mirrors smallDevice's geometry, for core.Mount.
func smallCoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Channels = 4
	cfg.Channel.Nand.BlocksPerPlane = 8
	cfg.Channel.Nand.PagesPerBlock = 8
	cfg.Channel.Nand.RetainData = true
	cfg.Channel.SparePerPlane = 2
	return cfg
}

// TestMountRecoversTaggedBlocks crashes a device mid-write and
// remounts it through the block layer: completed blocks come back
// addressable under their IDs with intact payloads, the in-flight
// block is discarded as torn, and the layer serves new writes with
// fresh IDs past the recovered ones.
func TestMountRecoversTaggedBlocks(t *testing.T) {
	env := sim.NewEnv()
	dev := smallDevice(t, env, true)
	l := New(env, dev, DefaultConfig())
	rng := rand.New(rand.NewSource(6))
	vals := make(map[BlockID][]byte)
	w := env.Go("w", func(p *sim.Proc) {
		for id := BlockID(0); id < 3; id++ {
			data := make([]byte, l.BlockSize())
			rng.Read(data)
			h, err := l.Write(p, id, data)
			if err != nil {
				t.Error(err)
				return
			}
			if h.Channel != int(id)%dev.Channels() {
				t.Errorf("id %d on channel %d", id, h.Channel)
			}
			vals[id] = data
		}
	})
	env.RunUntilDone(w)
	// One more write, torn by a power cut mid-stream.
	torn := make([]byte, l.BlockSize())
	rng.Read(torn)
	env.Go("torn", func(p *sim.Proc) {
		l.Write(p, 3, torn)
	})
	env.Schedule(10*time.Millisecond, dev.PowerLoss)
	env.Run()
	state := dev.State()
	env.Close()

	env2 := sim.NewEnv()
	defer env2.Close()
	mounted, err := core.Mount(env2, smallCoreConfig(), state)
	if err != nil {
		t.Fatal(err)
	}
	var l2 *Layer
	var st MountStats
	boot := env2.Go("mount", func(p *sim.Proc) {
		layer, mst, err := Mount(p, env2, mounted, DefaultConfig())
		if err != nil {
			t.Error(err)
			return
		}
		l2, st = layer, mst
	})
	env2.RunUntilDone(boot)
	if l2 == nil {
		t.Fatal("mount failed")
	}
	if st.RecoveredBlocks != 3 {
		t.Fatalf("recovered %d blocks, want 3", st.RecoveredBlocks)
	}
	if st.TornDiscarded == 0 {
		t.Fatal("the in-flight write was not discarded as torn")
	}
	if st.QuarantinedChannels == 0 {
		t.Fatal("crash damage did not quarantine the channel")
	}
	if max, ok := l2.MaxID(); !ok || max != 2 {
		t.Fatalf("MaxID = %d,%v, want 2,true", max, ok)
	}
	r := env2.Go("r", func(p *sim.Proc) {
		for id, want := range vals {
			got, err := l2.Read(p, id, 0, l2.BlockSize())
			if err != nil {
				t.Errorf("read id %d after remount: %v", id, err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("id %d read wrong bytes after remount", id)
			}
		}
		if _, ok := l2.blocks[3]; ok {
			t.Error("torn write came back addressable")
		}
		// The layer must keep serving: a fresh write past the
		// recovered IDs round-trips.
		data := make([]byte, l2.BlockSize())
		rng.Read(data)
		if _, err := l2.Write(p, 4, data); err != nil {
			t.Errorf("write after remount: %v", err)
			return
		}
		got, err := l2.Read(p, 4, 0, l2.BlockSize())
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("post-remount write round-trip failed: %v", err)
		}
	})
	env2.RunUntilDone(r)
	env2.Run()
}
