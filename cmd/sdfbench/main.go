// Command sdfbench regenerates the SDF paper's evaluation tables and
// figures against the simulated devices and prints them in paper-style
// rows next to the published numbers.
//
// Usage:
//
//	sdfbench [-quick] [-list] [-json] [-metrics] [-parallel N] [-trace out.json] [experiment ...]
//
// With no arguments every experiment runs in registry order; -list
// prints the names (case-insensitive on the command line).
//
// Every experiment that carries a contract (experiments.Entry.Check)
// is checked after it runs, in quick and full mode alike: a violated
// predicate is printed with its numbers to stderr and sdfbench exits 1.
//
// -parallel N runs up to N experiments concurrently. Experiments
// share no simulation state, so the tables are byte-identical to a
// sequential run; they are printed in registry order either way, and
// per-run wall-clock lines go to stderr so stdout stays deterministic.
//
// -json writes one BENCH_<experiment>.json per experiment: the
// formatted rows and the raw measured metrics. Nothing host-dependent
// goes into it, so a rerun is byte-identical and `diff -u` against a
// committed baseline is the whole regression check (make verify).
//
// -trace collects virtual-time trace events from the experiments that
// support tracing (figure8, faults, recovery, codesign) and writes a
// Chrome trace-event file to the given path plus a canonical JSONL
// stream alongside it; both are deterministic. With -json, each
// traced experiment's document records trace_sha256, the hash of its
// own events.
//
// The experiments that run replica groups (faults, codesign) always
// observe themselves: a labeled metrics registry scraped on a
// virtual-time period plus an SLO engine. Their SHA-256 hashes and
// the SLO verdicts land in the bench JSON's "observability" block.
// -metrics also writes each such experiment's raw exports,
// METRICS_<experiment>.prom (Prometheus text snapshot) and
// METRICS_<experiment>.jsonl (sampled time series); both are
// byte-stable across reruns.
//
// -cpuprofile/-memprofile write pprof profiles of the harness itself,
// for finding simulator hot spots (see README "Performance").
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"sdf/internal/experiments"
	"sdf/internal/fault"
	"sdf/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], experiments.Registry(), os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the selected entries
// of registry and returns the exit code (2 on usage errors, 1 on a
// failed run or a violated contract).
func run(args []string, registry []experiments.Entry, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("sdfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	quick := flags.Bool("quick", false, "shorter measurement windows")
	list := flags.Bool("list", false, "list experiments and exit")
	jsonOut := flags.Bool("json", false, "write BENCH_<experiment>.json per experiment")
	parallel := flags.Int("parallel", 1, "run up to N experiments concurrently")
	cpuProfile := flags.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flags.String("memprofile", "", "write a heap profile to this path on exit")
	tracePath := flags.String("trace", "", "write a Chrome trace to this path (and JSONL alongside)")
	traceFull := flags.Bool("trace-full", false, "with -trace, also record kernel events (spawn/park/acquire/xfer)")
	faultsPath := flags.String("faults", "", "fault plan JSON for the faults experiment (default: built-in plan)")
	metricsOut := flags.Bool("metrics", false, "write METRICS_<experiment>.prom and .jsonl for the experiments that export metrics")
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "sdfbench: %v\n", err)
		return code
	}

	if *list {
		for _, e := range registry {
			fmt.Fprintf(stdout, "%-12s %s\n", e.Name, e.Desc)
		}
		return 0
	}
	opts := experiments.Options{Quick: *quick}
	if *faultsPath != "" {
		pl, err := fault.Load(*faultsPath)
		if err != nil {
			return fail(2, err)
		}
		opts.FaultPlan = pl
	}
	if *tracePath != "" {
		if *parallel > 1 {
			return fail(2, errors.New("-trace needs a sequential run (the collector is shared); drop -parallel"))
		}
		opts.Tracer = trace.NewCollector()
		if *traceFull {
			opts.Tracer.SetLevel(trace.LevelFull)
		}
	}

	selected := registry
	if flags.NArg() > 0 {
		selected = nil
		for _, name := range flags.Args() {
			i := 0
			for i < len(registry) && !strings.EqualFold(registry[i].Name, name) {
				i++
			}
			if i == len(registry) {
				return fail(2, fmt.Errorf("unknown experiment %q (try -list)", name))
			}
			selected = append(selected, registry[i])
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	code := 0
	for i, r := range experiments.RunAll(selected, opts, *parallel) {
		fmt.Fprintln(stdout, r.Table.String())
		fmt.Fprintf(stderr, "(%s in %.1fs wall, %d events)\n", r.Name, r.Wall.Seconds(), r.Events)
		if *jsonOut {
			if err := writeBenchJSON(stderr, r, opts.Quick); err != nil {
				return fail(1, err)
			}
		}
		if *metricsOut && r.Table.Observability != nil {
			if err := writeMetricsExports(stderr, r.Name, r.Table.Observability); err != nil {
				return fail(1, err)
			}
		}
		if check := selected[i].Check; check != nil {
			if err := check(r.Table); err != nil {
				for _, line := range strings.Split(err.Error(), "\n") {
					fmt.Fprintf(stderr, "sdfbench: %s: contract violated: %s\n", r.Name, line)
				}
				code = 1
			}
		}
	}
	if opts.Tracer != nil {
		if err := writeTraces(stderr, *tracePath, opts.Tracer); err != nil {
			return fail(1, err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail(1, err)
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(1, err)
		}
	}
	return code
}

// benchDoc is the machine-readable result schema for -json. Every
// field is deterministic: two runs of the same binary with the same
// flags write byte-identical files.
type benchDoc struct {
	Experiment string             `json:"experiment"`
	ID         string             `json:"id"`
	Title      string             `json:"title"`
	Quick      bool               `json:"quick"`
	Header     []string           `json:"header"`
	Rows       [][]string         `json:"rows"`
	Notes      []string           `json:"notes,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// Observability carries the export fingerprints and SLO verdicts
	// of the experiments that export metrics; the raw exports go to
	// METRICS_<experiment>.prom/.jsonl (-metrics) instead of the bench
	// JSON.
	Observability *experiments.Observability `json:"observability,omitempty"`
	// TraceSHA256 fingerprints the experiment's own trace events when
	// it ran with -trace and emitted any.
	TraceSHA256 string `json:"trace_sha256,omitempty"`
}

// writeBenchJSON writes BENCH_<name>.json into the current directory.
// encoding/json sorts map keys, so the output is deterministic.
func writeBenchJSON(stderr io.Writer, r experiments.Result, quick bool) error {
	tab := r.Table
	buf, err := json.MarshalIndent(benchDoc{
		Experiment:    r.Name,
		ID:            tab.ID,
		Title:         tab.Title,
		Quick:         quick,
		Header:        tab.Header,
		Rows:          tab.Rows,
		Notes:         tab.Notes,
		Metrics:       tab.Metrics,
		Observability: tab.Observability,
		TraceSHA256:   r.TraceSHA256,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", r.Name)
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s (%d metrics)\n", path, len(tab.Metrics))
	return nil
}

// writeMetricsExports writes the Prometheus snapshot and the sampled
// time series for one experiment into the current directory. Both are
// byte-stable across seeded reruns; the bench JSON records their hashes.
func writeMetricsExports(stderr io.Writer, name string, obs *experiments.Observability) error {
	promPath := fmt.Sprintf("METRICS_%s.prom", name)
	if err := os.WriteFile(promPath, obs.Snapshot, 0o644); err != nil {
		return err
	}
	jsonlPath := fmt.Sprintf("METRICS_%s.jsonl", name)
	if err := os.WriteFile(jsonlPath, obs.Series, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s (sha256 %s) and %s (sha256 %s), %d alerts\n",
		promPath, obs.SnapshotSHA256[:12], jsonlPath, obs.SeriesSHA256[:12], obs.Alerts)
	return nil
}

// writeTraces writes the Chrome trace to chromePath and the canonical
// JSONL stream next to it (same path with a .jsonl extension).
func writeTraces(stderr io.Writer, chromePath string, c *trace.Collector) error {
	if c.Len() == 0 {
		fmt.Fprintln(stderr, "sdfbench: no trace events collected (only figure8, faults, recovery and codesign emit traces)")
		return nil
	}
	chrome, err := os.Create(chromePath)
	if err != nil {
		return err
	}
	if err := c.WriteChrome(chrome); err != nil {
		chrome.Close()
		return err
	}
	if err := chrome.Close(); err != nil {
		return err
	}
	jsonlPath := strings.TrimSuffix(chromePath, ".json") + ".jsonl"
	jsonl, err := os.Create(jsonlPath)
	if err != nil {
		return err
	}
	if err := c.WriteJSONL(jsonl); err != nil {
		jsonl.Close()
		return err
	}
	if err := jsonl.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s and %s (%d events, sha256 %s)\n",
		chromePath, jsonlPath, c.Len(), c.Hash()[:12])
	return nil
}
