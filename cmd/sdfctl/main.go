// Command sdfctl inspects and exercises a simulated SDF device, the
// way an operator pokes at /dev/sda0../dev/sda43 on a production box.
//
// Usage:
//
//	sdfctl [-channels N] [-blocks N] <command>
//
// Commands:
//
//	info      print device geometry and bandwidth envelope
//	exercise  erase/write/read every channel once and report timing
//	wear      hammer one channel and report wear leveling and ECC stats
//	stack     compare the kernel and bypass software paths
//
//	trace summarize <file.jsonl>
//	          read a JSONL trace written by sdfbench -trace and print
//	          the per-stage latency breakdown (count/mean/p50/p99 per
//	          phase per device)
//
//	faults [plan.json]
//	          validate a fault plan and print its schedule; with no
//	          argument, print the availability experiment's built-in
//	          plan
//
//	metrics summarize <file.prom>
//	          read a Prometheus snapshot written by sdfbench -metrics
//	          and print one line per metric family (type, series count,
//	          value spread)
//
//	metrics query <file.jsonl> <pattern>
//	          print every sampled time series whose ID contains the
//	          pattern: point count, time span, first/last/min/max
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sdf/internal/core"
	"sdf/internal/experiments"
	"sdf/internal/fault"
	"sdf/internal/flashchan"
	"sdf/internal/hostif"
	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

func main() {
	channels := flag.Int("channels", 44, "flash channels")
	blocks := flag.Int("blocks", 16, "erase blocks per plane (scaled geometry)")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: sdfctl [-channels N] [-blocks N] info|exercise|wear|stack|trace|faults|metrics")
		os.Exit(2)
	}

	switch flag.Arg(0) {
	case "info":
		info(*channels, *blocks)
	case "exercise":
		exercise(*channels, *blocks)
	case "wear":
		wear()
	case "stack":
		stack()
	case "trace":
		if flag.NArg() != 3 || flag.Arg(1) != "summarize" {
			fmt.Fprintln(os.Stderr, "usage: sdfctl trace summarize <file.jsonl>")
			os.Exit(2)
		}
		traceSummarize(flag.Arg(2))
	case "faults":
		if flag.NArg() > 2 {
			fmt.Fprintln(os.Stderr, "usage: sdfctl faults [plan.json]")
			os.Exit(2)
		}
		path := ""
		if flag.NArg() == 2 {
			path = flag.Arg(1)
		}
		faults(path)
	case "metrics":
		switch {
		case flag.NArg() == 3 && flag.Arg(1) == "summarize":
			metricsSummarize(flag.Arg(2))
		case flag.NArg() == 4 && flag.Arg(1) == "query":
			metricsQuery(flag.Arg(2), flag.Arg(3))
		default:
			fmt.Fprintln(os.Stderr, "usage: sdfctl metrics summarize <file.prom> | query <file.jsonl> <pattern>")
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "sdfctl: unknown command %q\n", flag.Arg(0))
		os.Exit(2)
	}
}

// traceSummarize reads a canonical JSONL trace and prints the
// per-(device, phase, span) latency table.
func traceSummarize(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		log.Fatal(err)
	}
	stats := trace.Summarize(events)
	if len(stats) == 0 {
		fmt.Println("no completed spans in trace")
		return
	}
	fmt.Printf("%d events, %d span groups\n\n", len(events), len(stats))
	fmt.Print(trace.FormatSummary(stats))
}

// faults validates and pretty-prints a fault plan; with no path it
// shows the availability experiment's built-in schedule.
func faults(path string) {
	var pl *fault.Plan
	if path == "" {
		pl = experiments.DefaultAvailabilityPlan()
		if err := pl.Validate(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("built-in availability plan (override with sdfbench -faults <plan.json>):")
	} else {
		var err error
		if pl, err = fault.Load(path); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Print(pl.String())
}

func newDevice(channels, blocks int) (*sim.Env, *core.Device) {
	env := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.Channels = channels
	cfg.Channel.Nand.BlocksPerPlane = blocks
	cfg.Channel.SparePerPlane = 2
	dev, err := core.New(env, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return env, dev
}

func info(channels, blocks int) {
	env, dev := newDevice(channels, blocks)
	defer env.Close()
	fmt.Printf("channels:            %d (exposed as independent devices)\n", dev.Channels())
	fmt.Printf("write/erase unit:    %d MiB (block-aligned)\n", dev.BlockSize()>>20)
	fmt.Printf("read unit:           %d KiB\n", dev.PageSize()>>10)
	fmt.Printf("blocks per channel:  %d\n", dev.BlocksPerChannel())
	fmt.Printf("usable capacity:     %.2f GiB\n", float64(dev.Capacity())/(1<<30))
	fmt.Printf("raw capacity:        %.2f GiB (%.1f%% exposed)\n",
		float64(dev.RawCapacity())/(1<<30),
		100*float64(dev.Capacity())/float64(dev.RawCapacity()))
	fmt.Printf("raw read bandwidth:  %.2f GB/s (channel-bus limited)\n", dev.RawReadBandwidth()/1e9)
	fmt.Printf("raw write bandwidth: %.2f GB/s (program limited)\n", dev.RawWriteBandwidth()/1e9)
	fmt.Printf("host interface:      PCIe 1.1 x8 (1.61/1.40 GB/s effective)\n")
}

func exercise(channels, blocks int) {
	env, dev := newDevice(channels, blocks)
	var erase, write, read metrics.Series
	var workers []*sim.Proc
	for ch := 0; ch < dev.Channels(); ch++ {
		ch := ch
		w := env.Go("exercise", func(p *sim.Proc) {
			t0 := env.Now()
			if err := dev.Erase(p, ch, 0); err != nil {
				log.Fatal(err)
			}
			erase.Observe(env.Now() - t0)
			t0 = env.Now()
			if err := dev.Write(p, ch, 0, nil); err != nil {
				log.Fatal(err)
			}
			write.Observe(env.Now() - t0)
			t0 = env.Now()
			if _, err := dev.Read(p, ch, 0, 0, dev.BlockSize()); err != nil {
				log.Fatal(err)
			}
			read.Observe(env.Now() - t0)
		})
		workers = append(workers, w)
	}
	waiter := env.Go("wait", func(p *sim.Proc) {
		for _, w := range workers {
			p.Join(w)
		}
	})
	env.RunUntilDone(waiter)
	total := int64(dev.Channels()) * int64(dev.BlockSize())
	elapsed := env.Now()
	env.Close()
	fmt.Printf("all %d channels: erase+write+read one 8 MiB block each\n", dev.Channels())
	fmt.Printf("erase:  mean %v (min %v, max %v)\n", erase.Mean(), erase.Min(), erase.Max())
	fmt.Printf("write:  mean %v (min %v, max %v)\n", write.Mean(), write.Min(), write.Max())
	fmt.Printf("read:   mean %v (min %v, max %v)\n", read.Mean(), read.Min(), read.Max())
	fmt.Printf("moved %d MiB in %v of device time\n", 2*total>>20, elapsed.Round(time.Millisecond))
}

func wear() {
	env := sim.NewEnv()
	cfg := flashchan.DefaultConfig()
	cfg.Nand.BlocksPerPlane = 12
	cfg.Nand.PagesPerBlock = 16
	cfg.Nand.EraseLimit = 100
	cfg.SparePerPlane = 3
	cfg.Seed = 1
	ch, err := flashchan.New(env, cfg)
	if err != nil {
		log.Fatal(err)
	}
	w := env.Go("wear", func(p *sim.Proc) {
		cycles := 0
		for {
			if err := ch.EraseWrite(p, cycles%ch.LogicalBlocks(), nil); err != nil {
				break
			}
			cycles++
		}
		st := ch.Wear()
		fmt.Printf("channel wore out after %d erase+write cycles\n", cycles)
		fmt.Printf("erase counts: %d..%d (dynamic wear leveling)\n", st.MinErase, st.MaxErase)
		fmt.Printf("bad blocks retired: %d\n", st.BadBlocks)
	})
	env.RunUntilDone(w)
	env.Close()
}

func stack() {
	env := sim.NewEnv()
	defer env.Close()
	kernel := hostif.NewStack(env, hostif.KernelStack())
	bypass := hostif.NewStack(env, hostif.BypassStack())
	fmt.Printf("kernel I/O stack:   %v per request\n", kernel.PerRequestCost())
	fmt.Printf("user-space bypass:  %v per request (interrupts merged 4-way)\n", bypass.PerRequestCost())
	fmt.Printf("ratio:              %.1fx\n",
		float64(kernel.PerRequestCost())/float64(bypass.PerRequestCost()))
}
