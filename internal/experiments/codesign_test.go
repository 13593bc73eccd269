package experiments

import (
	"strings"
	"sync"
	"testing"
)

// codesignObs fetches the CoDesign observability payload or fails.
func codesignObs(t *testing.T, tab Table) *Observability {
	t.Helper()
	if tab.Observability == nil {
		t.Fatal("CoDesign with Options.Metrics produced no observability payload")
	}
	return tab.Observability
}

// TestCoDesignObservabilityDeterministic reruns the experiment with
// the metrics pipeline on and requires byte-identical exports — the
// replay half of what make verify checks through sdfbench.
func TestCoDesignObservabilityDeterministic(t *testing.T) {
	opts := Options{Quick: true, Metrics: true}
	a := codesignObs(t, CoDesign(opts))
	b := codesignObs(t, CoDesign(opts))
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
	if !strings.Contains(string(a.Snapshot), "cluster_admission_delayed_writes_total") {
		t.Error("snapshot is missing cluster_admission_delayed_writes_total")
	}
	if !strings.Contains(string(a.Series), "cluster_read_latency_seconds") {
		t.Error("series JSONL is missing the read-latency histogram")
	}
}

// TestCoDesignUnderParallelRunner runs CoDesign alone and alongside
// other experiments on a worker pool; its observability hashes must
// not depend on scheduling neighbors.
func TestCoDesignUnderParallelRunner(t *testing.T) {
	var mu sync.Mutex
	var snaps, series []string
	entry := Entry{Name: "codesign", Run: func(o Options) Table {
		o.Metrics = true
		tab := CoDesign(o)
		obs := codesignObs(t, tab)
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
