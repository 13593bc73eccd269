package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"sdf/internal/blocklayer"
	"sdf/internal/ccdb"
	"sdf/internal/core"
	"sdf/internal/sim"
)

// The measured stacks are timing-only (no payload bytes), so what
// they return can be checked for size but not content. Every run
// therefore also drives two canaries: tiny SDF devices that retain
// data, inject raw bit errors and run the real BCH codec, written with
// seeded random bytes that must read back byte-equal. They are the
// only place bch does work, so the ECC counters of the ledger are
// theirs.

// canaryDevice builds a data-retaining device: 2 channels of 16 KB SDF
// blocks (4 planes x 2 pages x 2 KB), ~0.4 raw bit errors per 512-byte
// ECC sector against the production t=8 code.
func canaryDevice(env *sim.Env) *core.Device {
	cfg := core.DefaultConfig()
	cfg.Channels = 2
	cfg.Channel.Nand.BlocksPerPlane = 16
	cfg.Channel.Nand.PageSize = 2 << 10
	cfg.Channel.Nand.PagesPerBlock = 2
	cfg.Channel.Nand.RetainData = true
	cfg.Channel.Nand.BaseBER = 1e-4
	cfg.Channel.SparePerPlane = 2
	cfg.Channel.ECC = true
	dev, err := core.New(env, cfg)
	if err != nil {
		panic(err)
	}
	return dev
}

// runCanary runs both canaries in an environment of their own and
// records their check failures and ECC counters in r. It runs once per
// run, outside every timed phase: at the codec's ~1 MB/s a canary
// inside each repetition would be most of its host time.
func runCanary(r *rep) {
	env := sim.NewEnv()
	defer env.Close()
	rng := rand.New(rand.NewSource(r.seed))
	var l layers
	done := []*sim.Proc{
		env.Go("bench/canary", r.deviceCanary(env, &l, rng.Int63())),
		env.Go("bench/canary", r.sliceCanary(env, &l, rng.Int63())),
	}
	for _, p := range done {
		env.RunUntilDone(p)
	}
	r.addDelta(nil, l.counters())
}

// deviceCanary writes one random block per channel straight through
// core.Device and reads it back.
func (r *rep) deviceCanary(env *sim.Env, l *layers, seed int64) func(p *sim.Proc) {
	dev := canaryDevice(env)
	l.canary = append(l.canary, dev)
	rng := rand.New(rand.NewSource(seed))
	return func(p *sim.Proc) {
		for ch := 0; ch < dev.Channels(); ch++ {
			want := make([]byte, dev.BlockSize())
			rng.Read(want)
			if err := dev.EraseWrite(p, ch, 0, want); err != nil {
				r.failf("canary: write channel %d: %v", ch, err)
				return
			}
			got, err := dev.Read(p, ch, 0, 0, dev.BlockSize())
			if err != nil {
				r.failf("canary: read channel %d: %v", ch, err)
				return
			}
			if !bytes.Equal(got, want) {
				r.failf("canary: channel %d read back different bytes", ch)
			}
		}
	}
}

// sliceCanary puts random values into a DataMode CCDB slice over a
// canary device — enough to flush several patches and compact them —
// then gets every key back and compares the bytes.
func (r *rep) sliceCanary(env *sim.Env, l *layers, seed int64) func(p *sim.Proc) {
	dev := canaryDevice(env)
	l.canary = append(l.canary, dev)
	store := ccdb.NewSDFStore(blocklayer.New(env, dev, blocklayer.DefaultConfig()))
	slice := ccdb.NewSlice(env, store, ccdb.Config{PatchBytes: store.BlockSize(), RunsPerTier: 2, DataMode: true})
	rng := rand.New(rand.NewSource(seed))
	return func(p *sim.Proc) {
		const nKeys = 32
		want := make(map[string][]byte, nKeys)
		key := func(i int) string { return fmt.Sprintf("canary-%03d", i) }
		for i := 0; i < nKeys; i++ {
			v := make([]byte, 1<<10+rng.Intn(3<<10))
			rng.Read(v)
			want[key(i)] = v
			if err := slice.Put(p, key(i), v, len(v)); err != nil {
				r.failf("canary: put %s: %v", key(i), err)
				return
			}
		}
		if err := slice.Flush(p); err != nil {
			r.failf("canary: flush: %v", err)
			return
		}
		for i := 0; i < nKeys; i++ {
			got, size, err := slice.Get(p, key(i))
			switch {
			case err != nil:
				r.failf("canary: get %s: %v", key(i), err)
			case size != len(want[key(i)]) || !bytes.Equal(got, want[key(i)]):
				r.failf("canary: get %s returned different bytes", key(i))
			}
		}
	}
}
