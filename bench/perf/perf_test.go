package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"sdf/internal/trace"
)

// tiny is a sizing small enough for the test suite: a few requests
// per client.
var tiny = sizing{
	devRawWriteBlocks: 1,
	devRawSeqReads:    1,
	devRawRandReads:   20,
	kvReadHorizon:     200 * time.Millisecond,
	kvReadWarmup:      10 * time.Millisecond,
	kvWriteHorizon:    1500 * time.Millisecond,
	kvWriteWarmup:     100 * time.Millisecond,
	cmHorizon:         150 * time.Millisecond,
	cmWarmup:          10 * time.Millisecond,
	cmObjKeys:         96,
	readback:          8,
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesLedger keeps BENCHMARK.json and the names
// the program emits in step, both ways, and within the contract's
// limits.
func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name, unit, better string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not fit the contract", kind, name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q does not fit the contract", kind, name, unit)
		}
		if better != "" && better != "higher" && better != "lower" {
			t.Errorf("%s %s: better = %q", kind, name, better)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName("workload", w.Name, "", "")
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		checkName("end_to_end", m.Name, m.Unit, m.Better)
		def := endToEnd[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better || m.Bound != def.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, m, def)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d (cap 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName("per_layer", m.Name, m.Unit, m.Better)
		def := perLayer[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, m, def)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench/perf" {
		t.Errorf("paths = %v", bf.Paths)
	}
	for _, arg := range bf.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
}

// runOne runs the once-per-run step a workload needs and one tiny
// repetition.
func runOne(w workloadDef, seed int64) *rep {
	r := newRep(seed, tiny, probes{})
	r.once = newRep(seed, tiny, probes{})
	if w.once != nil {
		w.once(r.once)
	}
	w.run(r)
	return r
}

// oneRep runs a single tiny repetition and returns its digest.
func oneRep(t *testing.T, w workloadDef, seed int64) string {
	t.Helper()
	r := runOne(w, seed)
	if len(r.checks) > 0 {
		t.Fatalf("%s seed %d: output checks failed: %v", w.Name, seed, r.checks)
	}
	return digest(r.simulated())
}

// TestDigestRepeatsAndFollowsSeed: the same seed simulates the same
// thing twice; another seed something else.
func TestDigestRepeatsAndFollowsSeed(t *testing.T) {
	if raceEnabled {
		t.Skip("whole-stack repetitions are too slow under the race detector")
	}
	for _, w := range workloads {
		a, b, c := oneRep(t, w, 7), oneRep(t, w, 7), oneRep(t, w, 8)
		if a != b {
			t.Errorf("%s: two runs of seed 7 gave digests %s and %s", w.Name, a[:12], b[:12])
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.Name, a[:12])
		}
	}
}

// TestProtocolEmitsEveryName runs the whole protocol — canaries,
// repetitions, traced passes A and B — at the tiny size and requires
// every metric of the ledger, and nothing else, in the output.
func TestProtocolEmitsEveryName(t *testing.T) {
	if raceEnabled {
		t.Skip("whole-stack repetitions are too slow under the race detector")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rp := runProtocol(w, tiny, 3, 0.01, traced)
			if !rp.Correct {
				t.Errorf("%s traced=%v: output checks failed: %v", w.Name, traced, rp.Checks)
			}
			got, defs := rp.EndToEnd, endToEnd
			if traced {
				got, defs = rp.PerLayer, perLayer
			}
			if len(got) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d defined", w.Name, traced, len(got), len(defs))
			}
			for _, def := range defs {
				v, ok := got[def.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", w.Name, traced, def.Name)
				} else if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, def.Name, v.Value)
				}
			}
			line := rp.contractLine()
			if _, err := json.Marshal(line); err != nil {
				t.Errorf("%s traced=%v: result line: %v", w.Name, traced, err)
			}
			if !traced && rp.EndToEnd["sim_digest_ok"].Value != 1 {
				t.Errorf("%s: sim_digest_ok = %v", w.Name, rp.EndToEnd["sim_digest_ok"].Value)
			}
			if traced && rp.PerLayer["flashchan.ecc_corrected"].Value == 0 {
				t.Errorf("%s: the canaries corrected no bit errors; BCH was not exercised", w.Name)
			}
		}
	}
}

// TestLayerCountersFollowTheWorkload pins the shape the workloads were
// chosen for: cluster and coord do work only on cluster-mixed, ccdb
// and rpcnet none on dev-raw.
func TestLayerCountersFollowTheWorkload(t *testing.T) {
	if raceEnabled {
		t.Skip("whole-stack repetitions are too slow under the race detector")
	}
	for _, w := range workloads {
		s := runOne(w, 5).simulated()
		clusterBusy := s["cluster.gets"] > 0 && s["coord.grants"] > 0
		if clusterBusy != (w.Name == "cluster-mixed") {
			t.Errorf("%s: cluster.gets %v coord.grants %v", w.Name, s["cluster.gets"], s["coord.grants"])
		}
		kvBusy := s["ccdb.puts"]+s["ccdb.gets"] > 0 && s["rpcnet.calls"] > 0
		if kvBusy != (w.Name != "dev-raw") {
			t.Errorf("%s: ccdb.puts %v ccdb.gets %v rpcnet.calls %v", w.Name, s["ccdb.puts"], s["ccdb.gets"], s["rpcnet.calls"])
		}
		if s["core.read_mb"] <= 0 {
			t.Errorf("%s: no device reads", w.Name)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	c := trace.NewCollector()
	// client/op [0,100] -> rpcnet/call [10,90] -> two parallel ccdb/get
	// [20,60] and [30,80]; the first has a nand/read child [25,45].
	op := c.Begin(us(0), 0, "client/op", trace.PhaseOp)
	call := c.Begin(us(10), op, "rpcnet/call", trace.PhaseOp)
	g1 := c.Begin(us(20), call, "ccdb/get", trace.PhaseOp)
	n1 := c.Begin(us(25), g1, "nand/read", trace.PhaseFlash)
	g2 := c.Begin(us(30), call, "ccdb/get", trace.PhaseOp)
	c.End(us(45), n1)
	c.End(us(60), g1)
	c.End(us(80), g2)
	c.End(us(90), call)
	c.End(us(100), op)
	// A compaction-style span with no client above it, and its child.
	bg := c.Begin(us(5), 0, "blocklayer/write", trace.PhaseOp)
	bgChild := c.Begin(us(6), bg, "nand/program", trace.PhaseFlash)
	c.End(us(50), bgChild)
	c.End(us(55), bg)

	rep := analyzeSpans(c.Events())
	if rep.spans != 7 || rep.orphans != 2 {
		t.Fatalf("spans %d orphans %d, want 7 and 2", rep.spans, rep.orphans)
	}
	want := map[string]float64{
		"client": 0.020, // 100 - [10,90]
		"rpcnet": 0.020, // 80 - union([20,60],[30,80]) = 80 - 60
		"ccdb":   0.070, // (40 - 20) + 50
		"nand":   0.020, // the client-rooted read only; the orphan program does not count
	}
	for layer, ms := range want {
		if got := rep.selfByLayr[layer]; math.Abs(got-ms) > 1e-9 {
			t.Errorf("%s self time %v ms, want %v", layer, got, ms)
		}
	}
	if got := rep.selfByLayr["blocklayer"]; got != 0 {
		t.Errorf("orphan blocklayer span counted: %v ms", got)
	}
}

//go:noinline
func spinForProfile(d time.Duration) float64 {
	x := 1.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestCPUProfileDecoder(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()

	shares, samples, err := cpuShares([][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if samples < 5 {
		t.Fatalf("only %d samples in a 300 ms spin", samples)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("the spin is the harness's own code, yet bench holds only %.2f of the samples: %v", shares["bench"], shares)
	}
	raw, err := gunzip(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range prof.strings {
		found = found || strings.HasSuffix(name, "spinForProfile")
	}
	if !found {
		t.Error("decoded profile does not name spinForProfile")
	}
	if _, _, err := cpuShares([][]byte{[]byte("not a profile")}); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestBucketRule(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "sdf/internal/ccdb.(*Slice).Put", "main.runKVWrite.func2"}, "ccdb"},
		{[]string{"sdf/internal/sim.(*Env).runEvents", "sdf/internal/flashchan.(*Channel).ReadAt"}, "sim"},
		{[]string{"runtime.memmove", "main.runDevRaw"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.coroswitch_m", "runtime.mcall"}, bucketOther},
		{[]string{"sdf/internal/ssd.(*SSD).Write"}, bucketOther},
	}
	for _, c := range cases {
		if got := bucketOfStack(c.stack); got != c.want {
			t.Errorf("bucketOfStack(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	mk := func(n int) latencies {
		l := make(latencies, n)
		for i := range l {
			l[i] = time.Duration(i+1) * time.Millisecond
		}
		return l
	}
	if pct, _ := mk(999).tail(); pct != 90 {
		t.Errorf("999 samples: tail percentile %d, want 90 (p99 suppressed)", pct)
	}
	if v := mk(999).percentile(99); v != 0 {
		t.Errorf("999 samples: p99 = %v, want suppressed", v)
	}
	if pct, v := mk(1000).tail(); pct != 99 || v != 991 {
		t.Errorf("1000 samples: tail p%d = %v, want p99 = 991", pct, v)
	}
	if pct, _ := mk(99).tail(); pct != 50 {
		t.Errorf("99 samples: tail percentile %d, want 50", pct)
	}
	if pct, v := mk(19).tail(); pct != 0 || v != 0 {
		t.Errorf("19 samples: tail p%d = %v, want none", pct, v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q2, q3 := quartiles(vals)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "host_wall_s", Better: "lower", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		a, b []float64
		def  metricDef
		want string
	}{
		{steady, scale(1.2), lower, "worse"},
		{steady, scale(0.8), lower, "better"},
		{steady, scale(1.05), lower, "within-bound"},
		{[]float64{0.8, 1.3, 1.0, 0.7, 1.4, 1.0, 0.9, 1.2, 0.75, 1.35}, scale(1.5), lower, "unresolved"},
		{steady, scale(0.8), metricDef{Better: "higher", Bound: 0.10}, "worse"},
	}
	for i, c := range cases {
		if got, _ := verdict(c.a, c.b, c.def); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
	if wins, ties, pairs := pairWins(steady, scale(0.9), "lower"); wins != 10 || ties != 0 || pairs != 10 {
		t.Errorf("pairWins = %d %d %d", wins, ties, pairs)
	}
}

// TestCompareReadsResultFiles drives -compare end to end on two
// written reports.
func TestCompareReadsResultFiles(t *testing.T) {
	mk := func(wall float64) *report {
		rp := &report{Workload: "dev-raw", Seed: 1, Correct: true, Digest: strings.Repeat("0", 64),
			EndToEnd: map[string]value{}}
		for _, def := range endToEnd {
			rp.EndToEnd[def.Name] = value{Value: 1, Unit: def.Unit, Better: def.Better}
		}
		rp.EndToEnd["host_wall_s"] = hostValue([]float64{wall, wall * 1.01, wall * 0.99})
		return rp
	}
	a, b := t.TempDir(), t.TempDir()
	if err := mk(1.0).write(a); err != nil {
		t.Fatal(err)
	}
	if err := mk(1.5).write(b); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runCompare(&out, a, b); err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "host_wall_s") {
			row = line
		}
	}
	if !strings.Contains(row, "worse") || !strings.Contains(row, "+50.00%") {
		t.Errorf("host_wall_s row = %q", row)
	}
	if err := runCompare(&out, a, filepath.Join(b, "missing")); err == nil {
		t.Error("comparing against a missing path succeeded")
	}
}
