package experiments

import (
	"reflect"
	"sync"
	"testing"

	"sdf/internal/trace"
)

// runnerSubset is a cheap slice of the suite (sub-second experiments
// covering SDF, the conventional SSD, the cluster, and fault
// injection) so the sequential-vs-parallel comparison stays fast
// enough for `go test -race ./...` in CI.
var runnerSubset = []string{"stack", "erase", "erasesched", "placement", "sdfop", "faults", "recovery"}

func subsetEntries(t *testing.T) []Entry {
	t.Helper()
	var entries []Entry
	for _, name := range runnerSubset {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("registry is missing %q", name)
		}
		entries = append(entries, e)
	}
	return entries
}

// TestRunAllParallelMatchesSequential runs the same experiments
// sequentially and on a 4-worker pool and requires byte-identical
// tables, identical raw metrics, and identical kernel event counts —
// the determinism contract that lets sdfbench -parallel N exist.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	entries := subsetEntries(t)
	opts := Options{Quick: true}
	seq := RunAll(entries, opts, 1)
	par := RunAll(entries, opts, 4)
	if len(seq) != len(entries) || len(par) != len(entries) {
		t.Fatalf("result lengths: sequential %d, parallel %d, want %d", len(seq), len(par), len(entries))
	}
	for i := range entries {
		if seq[i].Name != entries[i].Name || par[i].Name != entries[i].Name {
			t.Errorf("result %d out of order: sequential %q, parallel %q, want %q",
				i, seq[i].Name, par[i].Name, entries[i].Name)
		}
		if s, p := seq[i].Table.String(), par[i].Table.String(); s != p {
			t.Errorf("%s: parallel table differs from sequential:\n--- sequential\n%s--- parallel\n%s",
				entries[i].Name, s, p)
		}
		if !reflect.DeepEqual(seq[i].Table.Metrics, par[i].Table.Metrics) {
			t.Errorf("%s: parallel metrics differ from sequential", entries[i].Name)
		}
		if seq[i].Events != par[i].Events {
			t.Errorf("%s: event counts differ: sequential %d, parallel %d",
				entries[i].Name, seq[i].Events, par[i].Events)
		}
	}
	// stack is analytical (no virtual time passes), but the rest of the
	// subset simulates; the counters must show it.
	var total uint64
	for _, r := range seq {
		total += r.Events
	}
	if total == 0 {
		t.Error("no kernel events recorded across the subset (newEnv not used?)")
	}
}

// TestRunAllTraceSHA256 checks that each result fingerprints only the
// trace events its own experiment added to the shared collector: the
// traced experiment's hash is the whole collector's, and an untraced
// one records none.
func TestRunAllTraceSHA256(t *testing.T) {
	recovery, _ := Lookup("recovery")
	stack, _ := Lookup("stack")
	c := trace.NewCollector()
	res := RunAll([]Entry{recovery, stack}, Options{Quick: true, Tracer: c}, 1)
	if c.Len() == 0 {
		t.Fatal("recovery emitted no trace events")
	}
	if res[0].TraceSHA256 != c.Hash() {
		t.Errorf("recovery trace_sha256 %q, collector hash %q", res[0].TraceSHA256, c.Hash())
	}
	if res[1].TraceSHA256 != "" {
		t.Errorf("untraced stack recorded trace_sha256 %q", res[1].TraceSHA256)
	}
}

// TestRunAllParallelTraceHash runs the traced availability experiment
// on a 4-worker pool next to untraced load and sequentially alone,
// giving each traced run a private collector, and requires the trace
// hashes to match: virtual-time traces must not notice host-side
// concurrency.
func TestRunAllParallelTraceHash(t *testing.T) {
	var mu sync.Mutex
	var hashes []string
	traced := Entry{Name: "faults", Run: func(o Options) Table {
		c := trace.NewCollector()
		o.Tracer = c
		tab := Faults(o)
		mu.Lock()
		hashes = append(hashes, c.Hash())
		mu.Unlock()
		return tab
	}}
	others := subsetEntries(t)[:3]
	opts := Options{Quick: true}
	seqTab := RunAll([]Entry{traced}, opts, 1)[0].Table.String()
	parTab := ""
	for _, r := range RunAll(append([]Entry{traced}, others...), opts, 4) {
		if r.Name == "faults" {
			parTab = r.Table.String()
		}
	}
	if len(hashes) != 2 {
		t.Fatalf("expected 2 traced runs, got %d", len(hashes))
	}
	if hashes[0] != hashes[1] {
		t.Errorf("trace hash changed under the parallel runner: %s vs %s", hashes[0], hashes[1])
	}
	if seqTab != parTab {
		t.Errorf("faults table changed under the parallel runner:\n--- sequential\n%s--- parallel\n%s", seqTab, parTab)
	}
}
