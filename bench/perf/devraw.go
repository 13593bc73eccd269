package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"sdf/internal/core"
	"sdf/internal/sim"
)

// dev-raw: closed loop, one synchronous worker per channel on all 44
// channels, calling core.Device directly (Figure 7 at 44 channels and
// Table 4): an 8 MB EraseWrite stream, then 8 MB sequential reads,
// then 8 KB random reads at depth 1. The work is a fixed op count per
// channel (sizing) — the frozen horizon of this workload.
const devRawPreloadBlocks = 2 // per channel, written in set-up, the read phases' targets

// Paper reference points (Table 4, SDF row), bytes/s.
const (
	paperRead8M  = 1.59e9
	paperWrite8M = 0.96e9
	paperRead8K  = 1.23e9
)

func runDevRaw(r *rep) {
	rng := rand.New(rand.NewSource(r.seed))
	var (
		env *sim.Env
		dev *core.Device
		l   layers
	)
	// perChannel runs fn once per channel concurrently and returns
	// when all are done — one phase of the closed loop.
	perChannel := func(p *sim.Proc, fn func(wp *sim.Proc, ch int)) {
		workers := make([]*sim.Proc, dev.Channels())
		for ch := range workers {
			ch := ch
			workers[ch] = env.Go("bench/worker", func(wp *sim.Proc) { fn(wp, ch) })
		}
		for _, w := range workers {
			p.Join(w)
		}
	}

	r.timed(&r.setup, func() {
		env = sim.NewEnv()
		cfg := core.DefaultConfig()
		cfg.Channel.Nand.BlocksPerPlane = devRawPreloadBlocks + r.size.devRawWriteBlocks + 4
		cfg.Channel.SparePerPlane = 2
		var err error
		if dev, err = core.New(env, cfg); err != nil {
			panic(err)
		}
		l.devs = append(l.devs, dev)
		boot := env.Go("bench/preload", func(p *sim.Proc) {
			perChannel(p, func(wp *sim.Proc, ch int) {
				for lbn := 0; lbn < devRawPreloadBlocks; lbn++ {
					if err := dev.EraseWrite(wp, ch, lbn, nil); err != nil {
						r.failf("preload: channel %d block %d: %v", ch, lbn, err)
					}
				}
			})
		})
		env.RunUntilDone(boot)
	})

	// Seeded inputs: each channel's random-read targets, and the
	// instant its reader thread starts — 44 threads are never in
	// lockstep, and their phase decides how they meet on the PCIe link.
	pagesPerBlock := dev.BlockSize() / dev.PageSize()
	type target struct{ lbn, off int }
	targets := make([][]target, dev.Channels())
	stagger := make([]time.Duration, dev.Channels())
	for ch := range targets {
		stagger[ch] = time.Duration(rng.Intn(300)) * time.Microsecond
		targets[ch] = make([]target, r.size.devRawRandReads)
		for i := range targets[ch] {
			targets[ch][i] = target{rng.Intn(devRawPreloadBlocks), rng.Intn(pagesPerBlock) * dev.PageSize()}
		}
	}

	var writeRate, seqRate, randRate float64
	block := dev.BlockSize()
	r.measure(env, &l, func() {
		t0 := env.Now()
		main := env.Go("bench/client", func(p *sim.Proc) {
			// phase runs n ops of size bytes on every channel and
			// returns the aggregate rate. The first op of each worker
			// is the warm-up: it is counted but not in the latencies.
			phase := func(n, size int, lat *latencies, delay []time.Duration, op func(wp *sim.Proc, ch, i int) error) float64 {
				start := env.Now()
				perChannel(p, func(wp *sim.Proc, ch int) {
					if delay != nil {
						wp.Wait(delay[ch])
					}
					for i := 0; i < n; i++ {
						opStart := env.Now()
						end := r.span(env, wp, "client/op")
						err := op(wp, ch, i)
						end()
						r.attempted++
						if err != nil {
							r.failed++
							r.failf("channel %d op %d: %v", ch, i, err)
							continue
						}
						r.ops++
						r.bytes += int64(size)
						if i > 0 {
							*lat = append(*lat, env.Now()-opStart)
						}
					}
				})
				return float64(n*size*dev.Channels()) / (env.Now() - start).Seconds()
			}
			writeRate = phase(r.size.devRawWriteBlocks, block, &r.writes, nil, func(wp *sim.Proc, ch, i int) error {
				return dev.EraseWrite(wp, ch, devRawPreloadBlocks+i, nil)
			})
			seqRate = phase(r.size.devRawSeqReads, block, new(latencies), nil, func(wp *sim.Proc, ch, i int) error {
				_, err := dev.Read(wp, ch, i%devRawPreloadBlocks, 0, block)
				return err
			})
			randRate = phase(r.size.devRawRandReads, dev.PageSize(), &r.reads, stagger, func(wp *sim.Proc, ch, i int) error {
				t := targets[ch][i]
				_, err := dev.Read(wp, ch, t.lbn, t.off, dev.PageSize())
				return err
			})
		})
		env.RunUntilDone(main)
		r.seconds = (env.Now() - t0).Seconds()
	})

	// Output checks: the device moved exactly the bytes the clients
	// asked for (every op is timing-only, so sizes are what can be
	// checked; the canaries cover content).
	wantRead := float64(dev.Channels()) * float64(r.size.devRawSeqReads*block+r.size.devRawRandReads*dev.PageSize())
	wantWrite := float64(dev.Channels() * r.size.devRawWriteBlocks * block)
	if r.ctr["core.read_bytes"] != wantRead || r.ctr["core.write_bytes"] != wantWrite || r.ctr["core.erase_bytes"] != wantWrite {
		r.failf("device counters: read %v want %v, written %v erased %v want %v",
			r.ctr["core.read_bytes"], wantRead, r.ctr["core.write_bytes"], r.ctr["core.erase_bytes"], wantWrite)
	}

	preloadBytes := int64(dev.Channels() * devRawPreloadBlocks * block)
	r.writeAmp = l.flashWriteAmp(preloadBytes+int64(wantWrite), 1)
	r.sloRate = float64(r.ops) / r.seconds
	if r.failed > 0 {
		r.sloRate = 0
	}
	rel := func(got, paper float64) float64 { return math.Abs(got-paper) / paper }
	r.paperErrPct = 100 * (rel(writeRate, paperWrite8M) + rel(seqRate, paperRead8M) + rel(randRate, paperRead8K)) / 3
	r.paperNote = "Table 4 SDF row: 8 MB write 0.96, 8 MB read 1.59, 8 KB read 1.23 GB/s"
	r.extra["client.write_mb_per_s"] = writeRate / 1e6
	r.extra["client.seq_read_mb_per_s"] = seqRate / 1e6
	r.extra["client.rand_read_mb_per_s"] = randRate / 1e6

	r.liveHeapMB = liveHeapMB()
	runtime.KeepAlive(dev)
	env.Close()
}
