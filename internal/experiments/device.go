package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sdf/internal/hostif"
	"sdf/internal/sim"
	"sdf/internal/ssd"
)

// seqBandwidth measures sequential throughput on a conventional SSD
// with 2 MB requests from k concurrent workers (the paper reads and
// writes "sequentially in erase-block units" through a deep queue).
func seqBandwidth(opts Options, prof ssd.Profile, write bool, k int) float64 {
	env := opts.newEnv()
	dev := newSSD(env, prof)
	const reqSize = 2 << 20
	span := dev.Capacity() / int64(k) / reqSize * reqSize
	cursor := make([]int64, k)
	for w := range cursor {
		cursor[w] = int64(w) * span
	}
	next := func(w int) int64 {
		off := cursor[w]
		if cursor[w] += reqSize; cursor[w]+reqSize > int64(w+1)*span {
			cursor[w] = int64(w) * span
		}
		return off
	}
	return loopRate(env, k, opts.scale(500*time.Millisecond), opts.scale(4*time.Second), ssdIO(dev, write, reqSize, next))
}

// Table1 regenerates Table 1: specifications and measured sequential
// bandwidths of the three commodity SSD classes at 20-25% OP.
func Table1(opts Options) Table {
	type row struct {
		prof           ssd.Profile
		iface          string
		rawR, rawW     float64 // vendor raw, bytes/s
		paperR, paperW float64
		workers        int
	}
	rows := []row{
		{ssd.Intel320(0.20).ScaleBlocks(24), "SATA 2.0", 300e6, 300e6, 219e6, 153e6, 8},
		{ssd.HuaweiGen3(0.25).ScaleBlocks(16), "PCIe 1.1x8", 1600e6, 950e6, 1200e6, 460e6, 16},
		{ssd.HighEnd(0.20).ScaleBlocks(12), "PCIe 1.1x8", 1600e6, 1500e6, 1300e6, 620e6, 16},
	}
	t := Table{
		ID:     "Table 1",
		Title:  "Commodity SSD specifications and sequential bandwidths",
		Header: []string{"Device", "Interface", "Raw R/W", "Measured R/W", "Paper R/W"},
		Notes: []string{
			"write runs use a buffer scaled to the shrunken simulated device",
		},
	}
	for _, r := range rows {
		wprof := r.prof
		wprof.BufferBytes = 64 << 20
		gotR := seqBandwidth(opts, r.prof, false, r.workers)
		gotW := seqBandwidth(opts, wprof, true, r.workers)
		t.Rows = append(t.Rows, []string{
			r.prof.Name, r.iface,
			mb(r.rawR) + " / " + mb(r.rawW),
			mb(gotR) + " / " + mb(gotW),
			mb(r.paperR) + " / " + mb(r.paperW),
		})
	}
	return t
}

// Figure1 regenerates Figure 1: 4 KB random-write throughput of the
// low-end SSD as a function of the over-provisioning ratio, starting
// from the steady-state GC block-occupancy distribution.
func Figure1(opts Options) Table {
	t := Table{
		ID:     "Figure 1",
		Title:  "Random 4 KB write throughput vs over-provisioning (Intel 320 model)",
		Header: []string{"Over-provisioning", "Throughput", "Write amplification", "Paper"},
		Notes: []string{
			"paper's 0% point is run at 1% (drives keep a hidden reserve to stay functional)",
			"absolute scale differs from the paper (~3x); the shape — steep loss at low OP — holds",
		},
	}
	paper := map[int]string{1: "~2 MB/s", 7: "~8 MB/s", 25: "~9.7 MB/s", 50: "~11.7 MB/s"}
	for _, opPct := range []int{1, 7, 25, 50} {
		prof := ssd.Intel320(float64(opPct) / 100).ScaleBlocks(64)
		prof.BufferBytes = 0
		env := opts.newEnv()
		dev := newSSD(env, prof)
		if err := dev.WarmFillRandom(1.0, 42); err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(42))
		slots := dev.Capacity() / 4096
		rate := loopRate(env, 32, opts.scale(5*time.Second), opts.scale(8*time.Second), ssdIO(dev, true, 4096, func(int) int64 {
			return rng.Int63n(slots) * 4096
		}))
		st := dev.Stats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d%%", opPct),
			mb(rate),
			fmt.Sprintf("%.2f", st.WriteAmplification()),
			paper[opPct],
		})
	}
	return t
}

// SoftwareStack regenerates the §2.4/§4.3 comparison: per-request
// software cost of the conventional kernel I/O path versus SDF's
// user-space IOCTL path.
func SoftwareStack(opts Options) Table {
	env := opts.newEnv()
	defer env.Close()
	kernel := hostif.NewStack(env, hostif.KernelStack())
	bypass := hostif.NewStack(env, hostif.BypassStack())
	t := Table{
		ID:     "E11 (sec 2.4/4.3)",
		Title:  "Per-request software-path cost",
		Header: []string{"Path", "Submit+complete", "Paper"},
	}
	t.Rows = append(t.Rows, []string{
		"Linux kernel I/O stack",
		kernel.PerRequestCost().String(),
		"~12.9 µs",
	})
	t.Rows = append(t.Rows, []string{
		"SDF user-space IOCTL (merged interrupts)",
		bypass.PerRequestCost().String(),
		"2-4 µs",
	})
	return t
}

// EraseThroughput regenerates the §3.2 aside: the aggregate rate at
// which the 44 exposed channels can erase.
func EraseThroughput(opts Options) Table {
	env := opts.newEnv()
	dev := newSDF(env, 64)
	rate := loopRate(env, dev.Channels(), 0, opts.scale(2*time.Second), func(ch int) func(p *sim.Proc) int {
		lbn := 0
		return func(p *sim.Proc) int {
			if err := dev.Erase(p, ch, lbn); err != nil {
				return -1
			}
			lbn = (lbn + 1) % dev.BlocksPerChannel()
			return dev.BlockSize()
		}
	})
	return Table{
		ID:     "E12 (sec 3.2)",
		Title:  "SDF aggregate erase throughput",
		Header: []string{"Metric", "Measured", "Paper"},
		Rows: [][]string{{
			"44-channel erase rate", gb(rate), "~40 GB/s",
		}},
		Notes: []string{
			"erases serialize per chip (two planes each); the paper reports the same order of magnitude",
		},
	}
}
