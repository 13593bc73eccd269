package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/core"
	"sdf/internal/metrics"
	"sdf/internal/sim"
)

// FutureWorkReadPriority implements and evaluates the scheduling the
// paper leaves as future work (§2.4, §5): "coordinate timings for the
// SDF to serve different types of requests so that on-demand reads
// take priority over writes and erasures". Readers share every
// channel with two background write streams; the channel engine
// either serves FIFO (production behaviour) or admits queued reads
// first (non-preemptively).
func FutureWorkReadPriority(opts Options) Table {
	t := Table{
		ID:     "Future work (sec 5)",
		Title:  "Read priority over writes/erases (512 KB reads vs streaming writes)",
		Header: []string{"Scheduling", "Read p50", "Read p99", "Write throughput"},
		Notes: []string{
			"non-preemptive: a read still waits out the write in service, but no longer the queued ones",
		},
	}
	for _, prioritize := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.Channel.Nand.BlocksPerPlane = 16
		cfg.Channel.SparePerPlane = 2
		cfg.Channel.PrioritizeReads = prioritize
		env := opts.newEnv()
		dev, err := core.New(env, cfg)
		if err != nil {
			panic(err)
		}
		deadline := opts.scale(6 * time.Second)
		var lat metrics.Series
		var written int64
		rng := rand.New(rand.NewSource(12))
		for ch := 0; ch < dev.Channels(); ch++ {
			// Two write streams per channel keep the queue non-empty.
			for wtr := 0; wtr < 2; wtr++ {
				env.Go("writer", func(p *sim.Proc) {
					lbn := wtr * (dev.BlocksPerChannel() / 2)
					for env.Now() < deadline {
						if err := dev.EraseWrite(p, ch, lbn, nil); err != nil {
							return
						}
						written += int64(dev.BlockSize())
						lbn = wtr*(dev.BlocksPerChannel()/2) + (lbn+1)%(dev.BlocksPerChannel()/2)
					}
				})
			}
			env.Go("reader", func(p *sim.Proc) {
				// Read from a block this reader wrote first.
				lbn := dev.BlocksPerChannel() - 1
				if err := dev.EraseWrite(p, ch, lbn, nil); err != nil {
					return
				}
				for env.Now() < deadline {
					p.Wait(time.Duration(rng.Intn(100)) * time.Millisecond)
					start := env.Now()
					if _, err := dev.Read(p, ch, lbn, 0, 512<<10); err != nil {
						return
					}
					lat.Observe(env.Now() - start)
				}
			})
		}
		env.RunUntil(deadline + 2*time.Second)
		env.Close()
		name := "FIFO (production)"
		if prioritize {
			name = "reads first"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.0f ms", float64(lat.Percentile(50))/1e6),
			fmt.Sprintf("%.0f ms", float64(lat.Percentile(99))/1e6),
			mb(float64(written) / deadline.Seconds()),
		})
	}
	return t
}

// FutureWorkPlacement implements the paper's other future-work item
// (§3.3.1, §5): a load-balance-aware scheduler so SDF reaches peak
// throughput with fewer concurrent requests. Twelve writers with
// random IDs either hash to channels (colliding and idling some) or
// go to the least-loaded channel.
func FutureWorkPlacement(opts Options) Table {
	t := Table{
		ID:     "Future work (sec 3.3.1)",
		Title:  "Write placement with limited concurrency (12 writers, random IDs)",
		Header: []string{"Placement", "Write throughput", "Busy channels (expected)"},
	}
	for _, policy := range []blocklayer.Placement{blocklayer.PlacementHash, blocklayer.PlacementLeastLoaded} {
		env := opts.newEnv()
		dev := newSDF(env, 16)
		lcfg := blocklayer.DefaultConfig()
		lcfg.Placement = policy
		layer := blocklayer.New(env, dev, lcfg)
		env.RunUntil(3 * time.Second) // pre-erase the pools
		rng := rand.New(rand.NewSource(19))
		warmup := env.Now() + opts.scale(time.Second)
		deadline := env.Now() + opts.scale(5*time.Second)
		rate := loopRate(env, 12, warmup, deadline, func(int) func(p *sim.Proc) int {
			return func(p *sim.Proc) int {
				id := blocklayer.BlockID(rng.Uint64())
				if _, err := layer.Write(p, id, nil); err != nil {
					return -1
				}
				if err := layer.Free(p, id); err != nil {
					return -1
				}
				return layer.BlockSize()
			}
		})
		name, busy := "hash (production)", "~10.5 of 44"
		if policy == blocklayer.PlacementLeastLoaded {
			name, busy = "least-loaded", "12 of 44"
		}
		t.Rows = append(t.Rows, []string{name, mb(rate), busy})
	}
	return t
}
