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
	"errors"
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError is a malformed command line: run prints it and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// run is the whole command: it parses args, runs the command and
// returns the exit code (2 on usage errors, 1 on a failed command).
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("sdfctl", flag.ContinueOnError)
	flags.SetOutput(stderr)
	channels := flags.Int("channels", 44, "flash channels")
	blocks := flags.Int("blocks", 16, "erase blocks per plane (scaled geometry)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	err := command(flags.Args(), *channels, *blocks, stdout)
	var usage usageError
	switch {
	case errors.As(err, &usage):
		fmt.Fprintln(stderr, usage)
		return 2
	case err != nil:
		fmt.Fprintf(stderr, "sdfctl: %v\n", err)
		return 1
	}
	return 0
}

// command dispatches one command line (flags already parsed).
func command(args []string, channels, blocks int, w io.Writer) error {
	if len(args) < 1 {
		return usageError("usage: sdfctl [-channels N] [-blocks N] info|exercise|wear|stack|trace|faults|metrics")
	}
	switch args[0] {
	case "info":
		return info(w, channels, blocks)
	case "exercise":
		return exercise(w, channels, blocks)
	case "wear":
		return wear(w)
	case "stack":
		stack(w)
		return nil
	case "trace":
		if len(args) != 3 || args[1] != "summarize" {
			return usageError("usage: sdfctl trace summarize <file.jsonl>")
		}
		return traceSummarize(w, args[2])
	case "faults":
		if len(args) > 2 {
			return usageError("usage: sdfctl faults [plan.json]")
		}
		path := ""
		if len(args) == 2 {
			path = args[1]
		}
		return faults(w, path)
	case "metrics":
		switch {
		case len(args) == 3 && args[1] == "summarize":
			return metricsSummarize(w, args[2])
		case len(args) == 4 && args[1] == "query":
			return metricsQuery(w, args[2], args[3])
		}
		return usageError("usage: sdfctl metrics summarize <file.prom> | query <file.jsonl> <pattern>")
	}
	return usageError(fmt.Sprintf("sdfctl: unknown command %q", args[0]))
}

// traceSummarize reads a canonical JSONL trace and prints the
// per-(device, phase, span) latency table.
func traceSummarize(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	stats := trace.Summarize(events)
	if len(stats) == 0 {
		fmt.Fprintln(w, "no completed spans in trace")
		return nil
	}
	fmt.Fprintf(w, "%d events, %d span groups\n\n", len(events), len(stats))
	fmt.Fprint(w, trace.FormatSummary(stats))
	return nil
}

// faults validates and pretty-prints a fault plan; with no path it
// shows the availability experiment's built-in schedule.
func faults(w io.Writer, path string) error {
	if path == "" {
		pl := experiments.DefaultAvailabilityPlan()
		if err := pl.Validate(); err != nil {
			return err
		}
		fmt.Fprintln(w, "built-in availability plan (override with sdfbench -faults <plan.json>):")
		fmt.Fprint(w, pl.String())
		return nil
	}
	pl, err := fault.Load(path)
	if err != nil {
		return err
	}
	fmt.Fprint(w, pl.String())
	return nil
}

func newDevice(channels, blocks int) (*sim.Env, *core.Device, error) {
	env := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.Channels = channels
	cfg.Channel.Nand.BlocksPerPlane = blocks
	cfg.Channel.SparePerPlane = 2
	dev, err := core.New(env, cfg)
	if err != nil {
		env.Close()
		return nil, nil, err
	}
	return env, dev, nil
}

func info(w io.Writer, channels, blocks int) error {
	env, dev, err := newDevice(channels, blocks)
	if err != nil {
		return err
	}
	defer env.Close()
	fmt.Fprintf(w, "channels:            %d (exposed as independent devices)\n", dev.Channels())
	fmt.Fprintf(w, "write/erase unit:    %d MiB (block-aligned)\n", dev.BlockSize()>>20)
	fmt.Fprintf(w, "read unit:           %d KiB\n", dev.PageSize()>>10)
	fmt.Fprintf(w, "blocks per channel:  %d\n", dev.BlocksPerChannel())
	fmt.Fprintf(w, "usable capacity:     %.2f GiB\n", float64(dev.Capacity())/(1<<30))
	fmt.Fprintf(w, "raw capacity:        %.2f GiB (%.1f%% exposed)\n",
		float64(dev.RawCapacity())/(1<<30),
		100*float64(dev.Capacity())/float64(dev.RawCapacity()))
	fmt.Fprintf(w, "raw read bandwidth:  %.2f GB/s (channel-bus limited)\n", dev.RawReadBandwidth()/1e9)
	fmt.Fprintf(w, "raw write bandwidth: %.2f GB/s (program limited)\n", dev.RawWriteBandwidth()/1e9)
	fmt.Fprintf(w, "host interface:      PCIe 1.1 x8 (1.61/1.40 GB/s effective)\n")
	return nil
}

func exercise(w io.Writer, channels, blocks int) error {
	env, dev, err := newDevice(channels, blocks)
	if err != nil {
		return err
	}
	defer env.Close()
	var erase, write, read metrics.Series
	var workers []*sim.Proc
	errs := make([]error, dev.Channels())
	for ch := 0; ch < dev.Channels(); ch++ {
		wk := env.Go("exercise", func(p *sim.Proc) {
			t0 := env.Now()
			if errs[ch] = dev.Erase(p, ch, 0); errs[ch] != nil {
				return
			}
			erase.Observe(env.Now() - t0)
			t0 = env.Now()
			if errs[ch] = dev.Write(p, ch, 0, nil); errs[ch] != nil {
				return
			}
			write.Observe(env.Now() - t0)
			t0 = env.Now()
			if _, errs[ch] = dev.Read(p, ch, 0, 0, dev.BlockSize()); errs[ch] != nil {
				return
			}
			read.Observe(env.Now() - t0)
		})
		workers = append(workers, wk)
	}
	waiter := env.Go("wait", func(p *sim.Proc) {
		for _, wk := range workers {
			p.Join(wk)
		}
	})
	env.RunUntilDone(waiter)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	total := int64(dev.Channels()) * int64(dev.BlockSize())
	elapsed := env.Now()
	fmt.Fprintf(w, "all %d channels: erase+write+read one 8 MiB block each\n", dev.Channels())
	fmt.Fprintf(w, "erase:  mean %v (min %v, max %v)\n", erase.Mean(), erase.Min(), erase.Max())
	fmt.Fprintf(w, "write:  mean %v (min %v, max %v)\n", write.Mean(), write.Min(), write.Max())
	fmt.Fprintf(w, "read:   mean %v (min %v, max %v)\n", read.Mean(), read.Min(), read.Max())
	fmt.Fprintf(w, "moved %d MiB in %v of device time\n", 2*total>>20, elapsed.Round(time.Millisecond))
	return nil
}

func wear(w io.Writer) error {
	env := sim.NewEnv()
	defer env.Close()
	cfg := flashchan.DefaultConfig()
	cfg.Nand.BlocksPerPlane = 12
	cfg.Nand.PagesPerBlock = 16
	cfg.Nand.EraseLimit = 100
	cfg.SparePerPlane = 3
	cfg.Seed = 1
	ch, err := flashchan.New(env, cfg)
	if err != nil {
		return err
	}
	cycles := 0
	hammer := env.Go("wear", func(p *sim.Proc) {
		for ch.EraseWrite(p, cycles%ch.LogicalBlocks(), nil) == nil {
			cycles++
		}
	})
	env.RunUntilDone(hammer)
	st := ch.Wear()
	fmt.Fprintf(w, "channel wore out after %d erase+write cycles\n", cycles)
	fmt.Fprintf(w, "erase counts: %d..%d (dynamic wear leveling)\n", st.MinErase, st.MaxErase)
	fmt.Fprintf(w, "bad blocks retired: %d\n", st.BadBlocks)
	return nil
}

func stack(w io.Writer) {
	env := sim.NewEnv()
	defer env.Close()
	kernel := hostif.NewStack(env, hostif.KernelStack())
	bypass := hostif.NewStack(env, hostif.BypassStack())
	fmt.Fprintf(w, "kernel I/O stack:   %v per request\n", kernel.PerRequestCost())
	fmt.Fprintf(w, "user-space bypass:  %v per request (interrupts merged 4-way)\n", bypass.PerRequestCost())
	fmt.Fprintf(w, "ratio:              %.1fx\n",
		float64(kernel.PerRequestCost())/float64(bypass.PerRequestCost()))
}
