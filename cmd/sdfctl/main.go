// Command sdfctl prints a simulated SDF device's geometry and reads
// the artifacts sdfbench writes: traces, fault plans and metrics
// exports. The experiments themselves, device scenarios included, run
// through sdfbench, where make verify checks them.
//
// Usage:
//
//	sdfctl [-channels N] [-blocks N] <command>
//
// Commands:
//
//	info      print device geometry and bandwidth envelope (-channels,
//	          -blocks scale it)
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

	"sdf/internal/core"
	"sdf/internal/experiments"
	"sdf/internal/fault"
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
		return usageError("usage: sdfctl [-channels N] [-blocks N] info|trace|faults|metrics")
	}
	switch args[0] {
	case "info":
		return info(w, channels, blocks)
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

// info prints the geometry and bandwidth envelope of a device with
// the given channel count and blocks per plane.
func info(w io.Writer, channels, blocks int) error {
	env := sim.NewEnv()
	defer env.Close()
	cfg := core.DefaultConfig()
	cfg.Channels = channels
	cfg.Channel.Nand.BlocksPerPlane = blocks
	cfg.Channel.SparePerPlane = 2
	dev, err := core.New(env, cfg)
	if err != nil {
		return err
	}
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
