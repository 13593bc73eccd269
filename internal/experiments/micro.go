package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/ssd"
)

// sdfThroughput measures SDF throughput with one synchronous worker
// per channel (the paper's 44-thread microbenchmark, §3.2): random
// reads of reqSize, or 8 MB erase+writes when reqSize == 0.
func sdfThroughput(opts Options, reqSize int) float64 {
	env := opts.newEnv()
	dev := newSDF(env, 32)
	warmup := opts.scale(500 * time.Millisecond)
	deadline := opts.scale(2 * time.Second)
	if reqSize >= dev.BlockSize() || reqSize == 0 {
		deadline = opts.scale(4 * time.Second)
	}
	worker := sdfBlockWrites(dev, dev.BlocksPerChannel())
	if reqSize > 0 {
		rng := rand.New(rand.NewSource(7))
		span := dev.BlockSize() - reqSize
		worker = sdfBlockReads(dev, reqSize, func() int {
			if span <= 0 {
				return 0
			}
			return rng.Intn(span/dev.PageSize()+1) * dev.PageSize()
		})
	}
	return loopRate(env, dev.Channels(), warmup, deadline, worker)
}

// ssdThroughput measures a conventional SSD with k concurrent workers
// (standing in for one deep-queue AIO thread): random reads of
// reqSize, or 8 MB writes when reqSize == 0.
func ssdThroughput(opts Options, prof ssd.Profile, reqSize, k int) float64 {
	env := opts.newEnv()
	dev := newSSD(env, prof)
	write := reqSize == 0
	if write {
		reqSize = 8 << 20
	}
	warmup := opts.scale(500 * time.Millisecond)
	deadline := opts.scale(2 * time.Second)
	if reqSize >= 8<<20 {
		deadline = opts.scale(4 * time.Second)
	}
	rng := rand.New(rand.NewSource(9))
	page := int64(dev.PageSize())
	slots := max(dev.Capacity()*9/10/int64(reqSize)-1, 1)
	return loopRate(env, k, warmup, deadline, ssdIO(dev, write, int64(reqSize), func(int) int64 {
		return rng.Int63n(slots) * int64(reqSize) / page * page
	}))
}

// Table4 regenerates Table 4: device throughput for random reads of
// 8 KB / 16 KB / 64 KB / 8 MB and 8 MB writes, on SDF (44 synchronous
// threads), the Huawei Gen3, and the Intel 320.
func Table4(opts Options) Table {
	t := Table{
		ID:     "Table 4",
		Title:  "Device throughput by request size (GB/s)",
		Header: []string{"Device", "8K read", "16K read", "64K read", "8M read", "8M write"},
	}
	sizes := []int{8 << 10, 16 << 10, 64 << 10, 8 << 20, 0}
	labels := []string{"read_8k", "read_16k", "read_64k", "read_8m", "write_8m"}

	var sdfRow []string
	sdfRow = append(sdfRow, "Baidu SDF")
	for i, sz := range sizes {
		r := sdfThroughput(opts, sz)
		t.metric("sdf."+labels[i]+".bps", r)
		sdfRow = append(sdfRow, gb(r))
	}
	t.Rows = append(t.Rows, sdfRow)
	t.Rows = append(t.Rows, []string{"  (paper)", "1.23 GB/s", "1.42 GB/s", "1.51 GB/s", "1.59 GB/s", "0.96 GB/s"})

	gen3 := ssd.HuaweiGen3(0.25).ScaleBlocks(16)
	gen3.BufferBytes = 64 << 20
	row := []string{"Huawei Gen3"}
	for i, sz := range sizes {
		r := ssdThroughput(opts, gen3, sz, 32)
		t.metric("gen3."+labels[i]+".bps", r)
		row = append(row, gb(r))
	}
	t.Rows = append(t.Rows, row)
	t.Rows = append(t.Rows, []string{"  (paper)", "0.92 GB/s", "1.02 GB/s", "1.15 GB/s", "1.20 GB/s", "0.67 GB/s"})

	intel := ssd.Intel320(0.125).ScaleBlocks(24)
	row = []string{"Intel 320"}
	for i, sz := range sizes {
		r := ssdThroughput(opts, intel, sz, 16)
		t.metric("intel320."+labels[i]+".bps", r)
		row = append(row, gb(r))
	}
	t.Rows = append(t.Rows, row)
	t.Rows = append(t.Rows, []string{"  (paper)", "0.17 GB/s", "0.20 GB/s", "0.22 GB/s", "0.22 GB/s", "0.13 GB/s"})
	return t
}

// Figure7 regenerates Figure 7: SDF sequential 8 MB read and write
// throughput as the number of active channels grows — near-linear
// until the PCIe ceiling (reads) or the flash program limit (writes).
func Figure7(opts Options) Table {
	t := Table{
		ID:     "Figure 7",
		Title:  "SDF throughput vs active channel count (8 MB sequential)",
		Header: []string{"Channels", "Read", "Write"},
		Notes:  []string{"paper: linear scaling to ~1.55 GB/s read / ~0.96 GB/s write at 44 channels"},
	}
	for _, n := range []int{4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44} {
		read := figure7Point(opts, n, false)
		write := figure7Point(opts, n, true)
		t.metric(fmt.Sprintf("read.%dch.bps", n), read)
		t.metric(fmt.Sprintf("write.%dch.bps", n), write)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), gb(read), gb(write)})
	}
	return t
}

func figure7Point(opts Options, channels int, write bool) float64 {
	env := opts.newEnv()
	dev := newSDF(env, 16)
	worker := sdfBlockReads(dev, dev.BlockSize(), func() int { return 0 })
	if write {
		worker = sdfBlockWrites(dev, dev.BlocksPerChannel())
	}
	return loopRate(env, channels, opts.scale(500*time.Millisecond), opts.scale(3*time.Second), worker)
}

// Figure8 regenerates Figure 8: write-latency traces on nearly full
// devices. The Gen3 swings between DRAM-buffer hits and GC-throttled
// stalls; SDF pays the erase up front on every write and is flat.
func Figure8(opts Options) Table {
	t := Table{
		ID:     "Figure 8",
		Title:  "Write latency traces on nearly-full devices",
		Header: []string{"Series", "N", "Min", "Mean", "Max", "CV"},
		Notes: []string{
			"paper: Gen3 8 MB spans 7-650 ms (mean 73 ms); Gen3 352 MB mean 2.94 s (CV 0.25); SDF ~383 ms, flat",
			"the Gen3 device and buffer are scaled down ~50x; the contrast in variability is the result under test",
		},
	}
	n := 120
	if opts.Quick {
		n = 60
	}

	sdfSeries := func(count int) metrics.Series {
		env := opts.newTracedEnv("sdf")
		dev := newSDF(env, 16)
		// Sample per-channel queue depth and utilization through the
		// measured run (it self-terminates, so the event loop drains).
		dev.StartSampler(20*time.Millisecond, 2*time.Second)
		var series metrics.Series
		perCh := (count + dev.Channels() - 1) / dev.Channels()
		var writers []*sim.Proc
		for ch := 0; ch < dev.Channels(); ch++ {
			w := env.Go("writer", func(p *sim.Proc) {
				for i := 0; i < perCh; i++ {
					start := env.Now()
					if err := dev.EraseWrite(p, ch, i%dev.BlocksPerChannel(), nil); err != nil {
						return
					}
					series.Observe(env.Now() - start)
				}
			})
			writers = append(writers, w)
		}
		waiter := env.Go("wait", func(p *sim.Proc) {
			for _, w := range writers {
				p.Join(w)
			}
		})
		env.RunUntilDone(waiter)
		env.Close()
		return series
	}

	addRow := func(name, key string, s metrics.Series) {
		t.metric(key+".n", float64(s.Len()))
		t.metric(key+".min_ms", float64(s.Min())/1e6)
		t.metric(key+".mean_ms", float64(s.Mean())/1e6)
		t.metric(key+".max_ms", float64(s.Max())/1e6)
		t.metric(key+".p99_ms", float64(s.Percentile(99))/1e6)
		t.metric(key+".cv", s.CoeffVar())
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", s.Len()),
			fmt.Sprintf("%.1f ms", float64(s.Min())/1e6),
			fmt.Sprintf("%.1f ms", float64(s.Mean())/1e6),
			fmt.Sprintf("%.1f ms", float64(s.Max())/1e6),
			fmt.Sprintf("%.2f", s.CoeffVar()),
		})
	}
	addRow("Huawei Gen3, 8 MB writes", "gen3_8m", gen3WriteLatencies(opts.newTracedEnv("gen3-8M"), 64<<20, 8<<20, n))
	addRow("Huawei Gen3, 352 MB writes", "gen3_352m", gen3WriteLatencies(opts.newTracedEnv("gen3-352M"), 64<<20, 352<<20, n/4))
	addRow("Baidu SDF, 8 MB erase+write", "sdf_8m", sdfSeries(n))
	return t
}

// gen3WriteLatencies runs count random writes of reqBytes, one at a
// time, on a randomly full Gen3 with a bufBytes write buffer, closes
// env and returns their latencies.
func gen3WriteLatencies(env *sim.Env, bufBytes, reqBytes int64, count int) metrics.Series {
	defer env.Close()
	prof := ssd.HuaweiGen3(0.10).ScaleBlocks(16)
	prof.BufferBytes = bufBytes
	dev := newSSD(env, prof)
	if err := dev.WarmFillRandom(1.0, 6); err != nil {
		panic(err)
	}
	var series metrics.Series
	rng := rand.New(rand.NewSource(4))
	slots := dev.Capacity() / reqBytes
	w := env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			off := rng.Int63n(slots) * reqBytes
			start := env.Now()
			if err := dev.Write(p, off, reqBytes); err != nil {
				return
			}
			series.Observe(env.Now() - start)
		}
	})
	env.RunUntilDone(w)
	return series
}
