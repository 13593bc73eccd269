package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sdf/internal/blocklayer"
	"sdf/internal/core"
	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/ssd"
)

// AblationStripeUnit (A1) probes the design choice the paper spends
// §2.3 on: a conventional SSD's small striping unit parallelizes one
// request across channels, but SDF deliberately keeps a request on one
// channel and gets its parallelism from request concurrency instead.
func AblationStripeUnit(opts Options) Table {
	t := Table{
		ID:     "Ablation A1",
		Title:  "Striping unit on the conventional SSD (512 KB random reads)",
		Header: []string{"Stripe unit", "1 reader", "32 readers"},
		Notes: []string{
			"small stripes parallelize a single request; with enough concurrency the unit stops mattering — SDF's premise",
		},
	}
	for _, stripe := range []int{1, 16, 256} {
		prof := ssd.HuaweiGen3(0.25).ScaleBlocks(16)
		prof.StripePages = stripe
		one := ssdThroughput(opts, prof, 512<<10, 1)
		many := ssdThroughput(opts, prof, 512<<10, 32)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d KB", stripe*8), mb(one), mb(many),
		})
	}
	return t
}

// AblationWriteBuffer (A2) isolates the Gen3's DRAM write cache: it
// produces the 7 ms fast path of Figure 8 and much of the variance.
func AblationWriteBuffer(opts Options) Table {
	t := Table{
		ID:     "Ablation A2",
		Title:  "DRAM write buffer on the Gen3 (8 MB writes, nearly full device)",
		Header: []string{"Buffer", "Min", "Mean", "Max", "CV"},
		Notes:  []string{"SDF removes the buffer (and its battery) entirely; §2.2"},
	}
	n := 80
	if opts.Quick {
		n = 40
	}
	for _, buf := range []int64{0, 64 << 20} {
		series := gen3WriteLatencies(opts.newEnv(), buf, 8<<20, n)
		name := "none (write-through)"
		if buf > 0 {
			name = "64 MB"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.1f ms", float64(series.Min())/1e6),
			fmt.Sprintf("%.1f ms", float64(series.Mean())/1e6),
			fmt.Sprintf("%.1f ms", float64(series.Max())/1e6),
			fmt.Sprintf("%.2f", series.CoeffVar()),
		})
	}
	return t
}

// AblationEraseScheduling (A3) compares the block layer's idle-time
// erase scheduling against paying the erase inline with every write
// (§2.3: the explicit erase command exists so software can do this).
func AblationEraseScheduling(opts Options) Table {
	t := Table{
		ID:     "Ablation A3",
		Title:  "Erase scheduling in the block layer (8 MB writes)",
		Header: []string{"Policy", "Write latency", "Inline erases", "Background erases"},
	}
	n := 60
	if opts.Quick {
		n = 30
	}
	for _, background := range []bool{true, false} {
		env := opts.newEnv()
		dev := newSDF(env, 16)
		cfg := blocklayer.DefaultConfig()
		cfg.BackgroundErase = background
		layer := blocklayer.New(env, dev, cfg)
		if background {
			env.RunUntil(3 * time.Second) // pre-erase the pool
		}
		var series metrics.Series
		w := env.Go("writer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				start := env.Now()
				if _, err := layer.Write(p, blocklayer.BlockID(i), nil); err != nil {
					return
				}
				series.Observe(env.Now() - start)
				if err := layer.Free(p, blocklayer.BlockID(i)); err != nil {
					return
				}
				p.Wait(20 * time.Millisecond) // think time: idle periods exist
			}
		})
		env.RunUntilDone(w)
		_, _, inline, bg := layer.Stats()
		env.Close()
		name := "idle-time (background)"
		if !background {
			name = "inline (erase-before-write)"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.1f ms", float64(series.Mean())/1e6),
			fmt.Sprintf("%d", inline),
			fmt.Sprintf("%d", bg),
		})
	}
	return t
}

// AblationSDFOverProvision (A4) withholds a fraction of SDF's logical
// blocks from use: since there is no garbage collection, reserving
// space buys nothing — the paper's argument for exposing 99% of
// capacity (§2.3).
func AblationSDFOverProvision(opts Options) Table {
	t := Table{
		ID:     "Ablation A4",
		Title:  "Reserved space on SDF (8 MB erase+write, 44 channels)",
		Header: []string{"Reserved", "Write throughput"},
		Notes:  []string{"no GC means no dependence on reserve space; contrast with Figure 1"},
	}
	for _, reserve := range []float64{0, 0.25, 0.50} {
		env := opts.newEnv()
		dev := newSDF(env, 32)
		usable := int(float64(dev.BlocksPerChannel()) * (1 - reserve))
		if usable < 1 {
			usable = 1
		}
		rate := loopRate(env, dev.Channels(), opts.scale(500*time.Millisecond), opts.scale(3*time.Second), sdfBlockWrites(dev, usable))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", reserve*100), gb(rate),
		})
	}
	return t
}

// AblationInterruptMerging (A5) measures the completion-interrupt
// coalescing the SDF controller performs across channel engines
// (§2.1), viewed from a single I/O core.
func AblationInterruptMerging(opts Options) Table {
	t := Table{
		ID:     "Ablation A5",
		Title:  "Interrupt merging (8 KB random reads, 44 threads, 1 I/O core)",
		Header: []string{"Merging", "Throughput", "IOPS"},
		Notes:  []string{"the card merges interrupts to 1/4-1/5 of the operation rate; §2.1"},
	}
	for _, merge := range []int{1, 4} {
		cfg := core.DefaultConfig()
		cfg.Channel.Nand.BlocksPerPlane = 16
		cfg.Channel.SparePerPlane = 2
		cfg.Stack.InterruptMerge = merge
		cfg.Stack.CPUs = 1
		env := opts.newEnv()
		dev, err := core.New(env, cfg)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(3))
		pages := dev.BlockSize() / dev.PageSize()
		rate := loopRate(env, dev.Channels(), opts.scale(500*time.Millisecond), opts.scale(2*time.Second), sdfBlockReads(dev, dev.PageSize(), func() int {
			return rng.Intn(pages) * dev.PageSize()
		}))
		name := "off"
		if merge > 1 {
			name = fmt.Sprintf("%d-way", merge)
		}
		t.Rows = append(t.Rows, []string{
			name, gb(rate), fmt.Sprintf("%.0fK", rate/8192/1000),
		})
	}
	return t
}

// AblationParity (A6) removes the Gen3's dedicated parity channels,
// quantifying the ~10% capacity and write-bandwidth tax that SDF
// avoids by relying on BCH plus cross-rack replication (§2.2).
func AblationParity(opts Options) Table {
	t := Table{
		ID:     "Ablation A6",
		Title:  "Cross-channel parity on the Gen3",
		Header: []string{"Parity", "Usable capacity", "Seq write"},
	}
	for _, ratio := range []int{10, 0} {
		prof := ssd.HuaweiGen3(0.25).ScaleBlocks(16)
		prof.ParityRatio = ratio
		prof.BufferBytes = 64 << 20
		env := opts.newEnv()
		dev := newSSD(env, prof)
		capacity := dev.Capacity()
		env.Close()
		rate := seqBandwidth(opts, prof, true, 16)
		name := "1 per 10 channels"
		if ratio == 0 {
			name = "none"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.1f GB", float64(capacity)/1e9),
			mb(rate),
		})
	}
	return t
}

// AblationStaticWL (A7) toggles static wear leveling on the Gen3: the
// migrations even out wear at the cost of sporadic foreground
// interference — one of the features SDF dropped for predictability
// (§2.2).
func AblationStaticWL(opts Options) Table {
	t := Table{
		ID:     "Ablation A7",
		Title:  "Static wear leveling on the Gen3 (sustained random writes)",
		Header: []string{"Static WL", "Moves", "Wear spread", "p99 latency", "Max latency"},
		Notes: []string{
			"migrations engage under skewed traffic and add background plane/controller work; SDF omits the feature entirely — its blocks cycle via explicit erases, and cache residency keeps data short-lived (sec 2.2)",
		},
	}
	for _, enabled := range []bool{false, true} {
		// A small, heavily skewed device: half the logical space is
		// hot, so without static WL the cold half's blocks never cycle.
		prof := ssd.HuaweiGen3(0.10).ScaleBlocks(8)
		prof.BufferBytes = 0
		prof.StaticWL = enabled
		prof.StaticWLSpread = 2
		env := opts.newEnv()
		dev := newSSD(env, prof)
		if err := dev.WarmFillRandom(1.0, 6); err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(8))
		var series metrics.Series
		deadline := opts.scale(20 * time.Second)
		slots := dev.Capacity() / int64(dev.PageSize()) / 2 // hot half only
		for w := 0; w < 16; w++ {
			env.Go("writer", func(p *sim.Proc) {
				for env.Now() < deadline {
					off := rng.Int63n(slots) * int64(dev.PageSize())
					start := env.Now()
					if err := dev.Write(p, off, int64(dev.PageSize())); err != nil {
						return
					}
					series.Observe(env.Now() - start)
				}
			})
		}
		env.RunUntil(deadline)
		st := dev.Stats()
		wmin, wmax := dev.Wear()
		env.Close()
		name := "off"
		if enabled {
			name = "on (spread 2)"
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", st.StaticWLMoves),
			fmt.Sprintf("%d..%d", wmin, wmax),
			fmt.Sprintf("%.1f ms", float64(series.Percentile(99))/1e6),
			fmt.Sprintf("%.1f ms", float64(series.Max())/1e6),
		})
	}
	return t
}
