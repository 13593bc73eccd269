package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// writeFile writes buf into a fresh temporary directory and returns
// its path.
func writeFile(t *testing.T, name string, buf []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantRows fails unless each of rows is, field for field, a line of
// out.
func wantRows(t *testing.T, out string, rows ...string) {
	t.Helper()
	have := make(map[string]bool)
	for _, line := range strings.Split(out, "\n") {
		have[strings.Join(strings.Fields(line), " ")] = true
	}
	for _, row := range rows {
		if !have[row] {
			t.Errorf("output lacks the row %q:\n%s", row, out)
		}
	}
}

// testRegistry holds one of each instrument kind the exporter writes:
// a counter on two devices, a gauge and a histogram.
func testRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Counter("ops_total", metrics.L("dev", "a")).Add(3)
	reg.Counter("ops_total", metrics.L("dev", "b")).Add(7)
	reg.Gauge("depth").Set(2.5)
	h := reg.Histogram("latency_seconds")
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	return reg
}

func TestMetricsSummarize(t *testing.T) {
	path := writeFile(t, "m.prom", metrics.Snapshot(testRegistry()))
	code, stdout, stderr := sdfctl("metrics", "summarize", path)
	if code != 0 {
		t.Fatalf("metrics summarize exited %d: %s", code, stderr)
	}
	// The histogram's _bucket, _sum and _count samples all count
	// toward its family: three buckets (the two observations' and
	// +Inf), the 4 ms sum and the count of 2.
	wantRows(t, stdout,
		path+": 8 series in 3 families",
		"family type series min max",
		"depth gauge 1 2.5 2.5",
		"latency_seconds histogram 5 0.004 2",
		"ops_total counter 2 3 7")
}

func TestMetricsQuery(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	reg := metrics.NewRegistry()
	ops := reg.Counter("ops_total", metrics.L("dev", "a"))
	reg.Counter("idle_total", metrics.L("dev", "a"))
	s := metrics.NewSampler(env, reg, 10*time.Millisecond, 0)
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			ops.Add(int64(i + 1))
			p.Wait(10 * time.Millisecond)
		}
	})
	env.RunUntil(40 * time.Millisecond)
	path := writeFile(t, "m.jsonl", metrics.SeriesJSONL(s))
	code, stdout, stderr := sdfctl("metrics", "query", path, "ops")
	if code != 0 {
		t.Fatalf("metrics query exited %d: %s", code, stderr)
	}
	// idle_total stays zero, so the exporter drops it; the pattern
	// would not match it anyway.
	wantRows(t, stdout,
		`ops_total{dev="a"}`,
		"4 points over 10ms..40ms first 1 last 10 min 1 max 10")
	if strings.Contains(stdout, "idle_total") {
		t.Errorf("query for %q printed idle_total:\n%s", "ops", stdout)
	}
}

func TestTraceSummarize(t *testing.T) {
	c := trace.NewCollector()
	c.SetDev("sdf")
	for i, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond} {
		at := time.Duration(i) * 10 * time.Millisecond
		op := c.Begin(at, 0, "sdf/read", trace.PhaseOp)
		flash := c.Begin(at, op, "nand/read", trace.PhaseFlash)
		c.End(at+d/2, flash)
		c.End(at+d, op)
	}
	c.Begin(time.Second, 0, "sdf/write", trace.PhaseOp) // never closed
	var b strings.Builder
	if err := c.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, "t.jsonl", []byte(b.String()))
	code, stdout, stderr := sdfctl("trace", "summarize", path)
	if code != 0 {
		t.Fatalf("trace summarize exited %d: %s", code, stderr)
	}
	// The unclosed write span counts as an event but forms no group.
	wantRows(t, stdout,
		"9 events, 2 span groups",
		"device phase span count total mean p50 p99 max cv",
		"sdf op sdf/read 2 4.00ms 2.00ms 1.00ms 3.00ms 3.00ms 0.50",
		"sdf flash nand/read 2 2.00ms 1.00ms 500.00µs 1.50ms 1.50ms 0.50")
}

// TestReadersRejectMalformedInput feeds each reader a file its parser
// must refuse, or one with nothing to report: a refusal exits 1 and
// names the fault on stderr.
func TestReadersRejectMalformedInput(t *testing.T) {
	for _, tc := range []struct {
		name, file, body string
		args             []string
		code             int
		want             string // in stdout on success, stderr on failure
	}{
		{"prom without families", "m.prom", "\n", []string{"metrics", "summarize"}, 1, "no metric families found"},
		{"prom sample before TYPE", "m.prom", "ops_total 1\n", []string{"metrics", "summarize"}, 1, `sample "ops_total" has no TYPE header`},
		{"prom malformed TYPE", "m.prom", "# TYPE ops_total\n", []string{"metrics", "summarize"}, 1, "malformed TYPE line"},
		{"prom sample without value", "m.prom", "# TYPE ops_total counter\nops_total\n", []string{"metrics", "summarize"}, 1, "malformed sample line"},
		{"prom bad value", "m.prom", "# TYPE ops_total counter\nops_total x\n", []string{"metrics", "summarize"}, 1, "bad value"},
		{"jsonl not JSON", "m.jsonl", "{\n", []string{"metrics", "query"}, 1, "m.jsonl: unexpected end of JSON input"},
		{"jsonl no match", "m.jsonl", `{"series":"a","points":[[1,2]]}` + "\n", []string{"metrics", "query"}, 1, `no series matching "ops"`},
		{"jsonl no points", "m.jsonl", `{"series":"ops","points":[]}` + "\n", []string{"metrics", "query"}, 0, "ops: no points"},
		{"trace without spans", "t.jsonl", "", []string{"trace", "summarize"}, 0, "no completed spans in trace"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string(nil), tc.args...), writeFile(t, tc.file, []byte(tc.body)))
			if tc.args[1] == "query" {
				args = append(args, "ops")
			}
			code, stdout, stderr := sdfctl(args...)
			if code != tc.code {
				t.Fatalf("exited %d, want %d (stdout %q, stderr %q)", code, tc.code, stdout, stderr)
			}
			if out := map[bool]string{true: stdout, false: stderr}[code == 0]; !strings.Contains(out, tc.want) {
				t.Errorf("output %q lacks %q", out, tc.want)
			}
		})
	}
}
