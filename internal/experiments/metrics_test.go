package experiments

import (
	"strings"
	"sync"
	"testing"
)

// obsResult fetches the observability payload or fails the test.
func obsResult(t *testing.T, tab Table) *Observability {
	t.Helper()
	if tab.Observability == nil {
		t.Fatal("Faults with Options.Metrics produced no observability payload")
	}
	return tab.Observability
}

// TestFaultsObservabilityDeterministic runs the availability experiment
// twice with the metrics pipeline on and requires byte-identical
// exports: the Prometheus snapshot hash, the series JSONL hash, and
// the SLO report must all match across seeded reruns. This is the
// exporter half of the determinism contract (make verify checks the
// same hashes through sdfbench).
func TestFaultsObservabilityDeterministic(t *testing.T) {
	opts := Options{Quick: true, Metrics: true}
	a := obsResult(t, Faults(opts))
	b := obsResult(t, Faults(opts))
	if a.SnapshotSHA256 != b.SnapshotSHA256 {
		t.Errorf("snapshot hash changed across reruns: %s vs %s", a.SnapshotSHA256, b.SnapshotSHA256)
	}
	if a.SeriesSHA256 != b.SeriesSHA256 {
		t.Errorf("series hash changed across reruns: %s vs %s", a.SeriesSHA256, b.SeriesSHA256)
	}
	if string(a.Snapshot) != string(b.Snapshot) {
		t.Error("prometheus snapshots differ byte-for-byte across reruns")
	}
	if string(a.Series) != string(b.Series) {
		t.Error("series JSONL differs byte-for-byte across reruns")
	}
	if len(a.SLO) == 0 || len(a.SLO) != len(b.SLO) {
		t.Fatalf("SLO report lengths: %d vs %d", len(a.SLO), len(b.SLO))
	}
	for i := range a.SLO {
		if a.SLO[i] != b.SLO[i] {
			t.Errorf("SLO result %d changed across reruns:\n  %v\n  %v", i, a.SLO[i], b.SLO[i])
		}
	}
	if a.Alerts != b.Alerts {
		t.Errorf("alert counts differ: %d vs %d", a.Alerts, b.Alerts)
	}

	// The exports must not be trivially empty.
	if !strings.Contains(string(a.Snapshot), "cluster_gets_total") {
		t.Error("snapshot is missing cluster_gets_total")
	}
	if !strings.Contains(string(a.Series), "cluster_read_latency_seconds") {
		t.Error("series JSONL is missing the read-latency histogram")
	}
}

// TestFaultsObservabilityUnderParallelRunner runs the metrics-enabled
// availability experiment on a worker pool next to unrelated load and
// requires the export hashes to match a solo sequential run: the
// observability pipeline must not notice host-side concurrency.
func TestFaultsObservabilityUnderParallelRunner(t *testing.T) {
	var mu sync.Mutex
	var snaps, series []string
	entry := Entry{Name: "faults", Run: func(o Options) Table {
		o.Metrics = true
		tab := Faults(o)
		obs := obsResult(t, tab)
		mu.Lock()
		snaps = append(snaps, obs.SnapshotSHA256)
		series = append(series, obs.SeriesSHA256)
		mu.Unlock()
		return tab
	}}
	others := subsetEntries(t)[:3]
	opts := Options{Quick: true}
	RunAll([]Entry{entry}, opts, 1)
	RunAll(append([]Entry{entry}, others...), opts, 4)
	if len(snaps) != 2 {
		t.Fatalf("expected 2 metered runs, got %d", len(snaps))
	}
	if snaps[0] != snaps[1] {
		t.Errorf("snapshot hash changed under the parallel runner: %s vs %s", snaps[0], snaps[1])
	}
	if series[0] != series[1] {
		t.Errorf("series hash changed under the parallel runner: %s vs %s", series[0], series[1])
	}
}
