// Command perf is the whole-stack benchmark of the SDF reproduction:
// four workloads, each built from the public constructors of
// internal/*, run under one protocol, checked for correct output, and
// reported as end-to-end metrics plus a per-layer ledger. Every number
// is either host (what the simulator costs to run) or simulated (what
// the modelled SDF did, in virtual time). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	Name string
	Why  string
	run  func(r *rep) // one repetition
	// once, if set, runs once per run before the repetitions, untimed,
	// on the record every repetition then sees as r.once.
	once func(once *rep)
}

var workloads = []workloadDef{
	{"dev-raw", "direct core.Device calls on all 44 channels: only sim, flashchan, nand and hostif work, so it is the control for any KV-path change and the exercise for a kernel one", runDevRaw, nil},
	{"kv-read", "8 clients x batch 44 x 512 KB Gets via rpcnet, ccdb and blocklayer with the working set all on flash: the read path and the rpcnet fan-out closures", runKVRead, nil},
	{"kv-write-compact", "8 writers streaming 100 KB-1 MB Puts: memtable, flush, merge compaction, 8 MB writes, frees and erases, the same layers as kv-read used the other way", runKVWrite, nil},
	{"cluster-mixed", "open loop at three read rates on the coordinated 3-replica stack: the only workload where cluster, coord, rpcnet deadlines and metrics do most of the work", runClusterMixed, runClusterLadder},
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all four)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 15, "host seconds to spend on measured repetitions, per workload and pass")
		traceOn = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer ledger with the traced passes; default both")
		out     = flag.String("out", "out", "directory for one JSON file per run (relative to bench/perf); empty writes none")
		compare = flag.Bool("compare", false, "compare two result files or directories: -compare A B")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two arguments: result files or directories")
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.Name == *name {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			fatalf("unknown workload %q", *name)
		}
	}
	passes := []bool{false, true}
	if *traceOn == 0 || *traceOn == 1 {
		passes = []bool{*traceOn == 1}
	} else if *traceOn != -1 {
		fatalf("-trace must be 0 or 1")
	}

	ok := true
	var last *report
	for _, w := range selected {
		for _, traced := range passes {
			rp := runProtocol(w, frozen, *seed, *seconds, traced)
			rp.print(os.Stdout)
			if *out != "" {
				if err := rp.write(*out); err != nil {
					fatalf("%v", err)
				}
			}
			ok = ok && rp.Correct
			last = rp
		}
	}
	// The driver's contract: with one workload and one pass selected,
	// the last line of standard output is the result object.
	if len(selected) == 1 && len(passes) == 1 {
		line, err := json.Marshal(last.contractLine())
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "perf: output checks failed")
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perf: "+format+"\n", args...)
	os.Exit(2)
}

// write stores the report as <dir>/<workload>-seed<N>-trace<0|1>.json.
func (rp *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rp, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if rp.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rp.Workload, rp.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// contractLine is the one-line result the benchmark driver reads.
func (rp *report) contractLine() map[string]any {
	src := rp.EndToEnd
	if rp.Trace {
		src = rp.PerLayer
	}
	metrics := map[string]any{}
	for name, v := range src {
		metrics[name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{"correct": rp.Correct, "attempted": rp.Attempted, "failed": rp.Failed, "metrics": metrics}
}

func (rp *report) print(w io.Writer) {
	pass := "end-to-end (tracing off)"
	if rp.Trace {
		pass = "per-layer ledger (untraced counters + traced passes A and B)"
	}
	fmt.Fprintf(w, "\n=== %s  seed %d  %s ===\n", rp.Workload, rp.Seed, pass)
	fmt.Fprintf(w, "why: %s\n", rp.Why)
	fmt.Fprintf(w, "repetitions: 1 warm-up + %d measured in %.1f s; requests attempted %d, failed %d; digest %s\n",
		rp.Reps, rp.MeasuredS, rp.Attempted, rp.Failed, rp.Digest[:16])
	if !rp.Trace {
		printLedger(w, "end-to-end", endToEnd, rp.EndToEnd)
		fmt.Fprintf(w, "  paper: sim_paper_err_pct %s %% (%s)\n", fmtNum(rp.PaperErrPct), rp.PaperNote)
	} else {
		printLedger(w, "per-layer", perLayer, rp.PerLayer)
	}
	if rp.Correct {
		fmt.Fprintln(w, "output checks: ok")
	} else {
		fmt.Fprintf(w, "output checks: FAILED\n  %s\n", strings.Join(rp.Checks, "\n  "))
	}
}
