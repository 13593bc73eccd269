package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"sdf/internal/ssd"
)

// baseline reads the committed quick-mode table of one experiment
// (bench/baseline/BENCH_<name>.json, which make verify diffs whole).
func baseline(t *testing.T, name string) Table {
	t.Helper()
	raw, err := os.ReadFile("../../bench/baseline/BENCH_" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var tab Table
	if err := json.Unmarshal(raw, &tab); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestDriversMatchBaselines runs one cheap point of each throughput
// driver and requires the exact value, or the exact formatted cell,
// that the experiment's committed baseline holds for it.
func TestDriversMatchBaselines(t *testing.T) {
	gen3 := ssd.HuaweiGen3(0.25).ScaleBlocks(16)
	gen3.BufferBytes = 64 << 20
	for _, c := range []struct {
		exp, key string
		run      func() float64
	}{
		{"figure7", "read.4ch.bps", func() float64 { return figure7Point(quick, 4, false) }},
		{"figure7", "write.4ch.bps", func() float64 { return figure7Point(quick, 4, true) }},
		{"table4", "sdf.read_8k.bps", func() float64 { return sdfThroughput(quick, 8<<10) }},
		{"table4", "gen3.read_8k.bps", func() float64 { return ssdThroughput(quick, gen3, 8<<10, 32) }},
	} {
		t.Run(c.exp+"/"+c.key, func(t *testing.T) {
			want := baseline(t, c.exp).Metrics[c.key]
			if got := c.run(); got != want {
				t.Errorf("%v, baseline %v", got, want)
			}
		})
	}
	for _, c := range []struct {
		exp      string
		row, col int
		run      func() string
	}{
		{"table1", 0, 3, func() string {
			intel := ssd.Intel320(0.20).ScaleBlocks(24)
			r := seqBandwidth(quick, intel, false, 8)
			intel.BufferBytes = 64 << 20
			return mb(r) + " / " + mb(seqBandwidth(quick, intel, true, 8))
		}},
		{"figure10", 0, 1, func() string { return mb(kvReadRate(quick, devSDF, 1, 1, 512<<10)) }},
		{"figure13", 0, 1, func() string { return mb(scanRate(quick, devSDF, 1, 8)) }},
		{"figure14", 0, 1, func() string { w, _ := writeCompactionRates(quick, devSDF, 1); return mb(w) }},
	} {
		t.Run(fmt.Sprintf("%s/row%d/col%d", c.exp, c.row, c.col), func(t *testing.T) {
			want := baseline(t, c.exp).Rows[c.row][c.col]
			if got := c.run(); got != want {
				t.Errorf("%q, baseline %q", got, want)
			}
		})
	}
}
