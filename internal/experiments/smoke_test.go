package experiments

import (
	"strings"
	"testing"
)

// quick runs every experiment in quick mode; these are smoke tests
// that the full bench harness exercises at production durations.
var quick = Options{Quick: true}

func checkTable(t *testing.T, tab Table, wantRows int) {
	t.Helper()
	if len(tab.Rows) < wantRows {
		t.Fatalf("%s: %d rows, want >= %d", tab.ID, len(tab.Rows), wantRows)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("%s: row %v has %d cells, header has %d", tab.ID, row, len(row), len(tab.Header))
		}
	}
	if !strings.Contains(tab.String(), tab.ID) {
		t.Fatalf("%s: String() missing ID", tab.ID)
	}
}

// TestDeviceKindNames pins the device names Figure 12's row labels
// carry.
func TestDeviceKindNames(t *testing.T) {
	for kind, want := range map[deviceKind]string{devSDF: "Baidu SDF", devGen3: "Huawei Gen3", devIntel: "Intel 320"} {
		if got := kind.String(); got != want {
			t.Errorf("deviceKind %d is %q, want %q", kind, got, want)
		}
	}
}

func TestSoftwareStackTable(t *testing.T) {
	checkTable(t, SoftwareStack(quick), 2)
}

func TestEraseThroughputTable(t *testing.T) {
	tab := EraseThroughput(quick)
	checkTable(t, tab, 1)
	// The measured value must be tens of GB/s.
	if !strings.Contains(tab.Rows[0][1], "GB/s") {
		t.Fatalf("unexpected cell: %q", tab.Rows[0][1])
	}
}
