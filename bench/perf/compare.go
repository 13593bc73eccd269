package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// side is every run found under one -compare argument, grouped by
// workload; traced and untraced runs are kept apart.
type side struct {
	endToEnd map[string][]*report
	perLayer map[string][]*report
}

// loadSide reads one result file, or every *.json below a directory in
// path order (so run01, run02, ... pair up across the two sides).
func loadSide(path string) (*side, error) {
	var files []string
	err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".json") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	s := &side{endToEnd: map[string][]*report{}, perLayer: map[string][]*report{}}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rp report
		if err := json.Unmarshal(b, &rp); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rp.Workload == "" {
			return nil, fmt.Errorf("%s: not a result file of this benchmark", f)
		}
		if rp.Trace {
			s.perLayer[rp.Workload] = append(s.perLayer[rp.Workload], &rp)
		} else {
			s.endToEnd[rp.Workload] = append(s.endToEnd[rp.Workload], &rp)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return s, nil
}

// samplesOf returns the values a side's spread is taken over: one per
// run (each the run's own median), or, for a single run of a host
// metric, that run's repetitions.
func samplesOf(runs []*report, name string, perLayer bool) []float64 {
	var vals []float64
	for _, rp := range runs {
		m := rp.EndToEnd
		if perLayer {
			m = rp.PerLayer
		}
		v, ok := m[name]
		if !ok {
			continue
		}
		if len(runs) == 1 && len(v.Reps) > 1 {
			return v.Reps
		}
		vals = append(vals, v.Value)
	}
	return vals
}

// worseBy is how much worse b is than a as a share of a, positive when
// worse, given the metric's direction.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// verdict applies the benchmark's rule to one workload x metric: the
// metric is unresolved when the parent's own inter-quartile spread
// exceeds the bound; worse when the change's median is worse than the
// parent's by more than the bound; better when it is better by more
// than the parent's spread; otherwise within-bound.
func verdict(a, b []float64, def metricDef) (string, float64) {
	q1, _, q3 := quartiles(a)
	ma, mb := median(a), median(b)
	spread := 0.0
	if ma != 0 {
		spread = (q3 - q1) / math.Abs(ma)
	}
	worse := worseBy(ma, mb, def.Better)
	switch {
	case spread > def.Bound:
		return "unresolved", worse
	case worse > def.Bound:
		return "worse", worse
	case worse < 0 && -worse > spread:
		return "better", worse
	}
	return "within-bound", worse
}

// pairWins counts, over runs paired in order, how often b beat a.
func pairWins(a, b []float64, better string) (wins, ties, pairs int) {
	if len(a) != len(b) || len(a) < 2 {
		return 0, 0, 0
	}
	for i := range a {
		switch w := worseBy(a[i], b[i], better); {
		case w < 0:
			wins++
		case w == 0:
			ties++
		}
	}
	return wins, ties, len(a)
}

// runCompare prints one row per workload x end-to-end metric with both
// sides' medians and quartiles, the delta, the bound and a verdict,
// then the per-layer deltas of each workload sorted by size.
func runCompare(w io.Writer, pathA, pathB string) error {
	a, err := loadSide(pathA)
	if err != nil {
		return err
	}
	b, err := loadSide(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A (parent) = %s\nB (change) = %s\n", pathA, pathB)
	fmt.Fprintf(w, "\n%-17s %-19s %12s %25s %12s %25s %9s %7s %7s  %s\n",
		"workload", "metric", "A median", "A [q1 q3]", "B median", "B [q1 q3]", "B worse", "bound", "B wins", "verdict")
	for _, wl := range workloads {
		ra, rb := a.endToEnd[wl.Name], b.endToEnd[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, def := range endToEnd {
			va, vb := samplesOf(ra, def.Name, false), samplesOf(rb, def.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			aq1, _, aq3 := quartiles(va)
			bq1, _, bq3 := quartiles(vb)
			v, worse := verdict(va, vb, def)
			wins := "-"
			if n, ties, pairs := pairWins(va, vb, def.Better); pairs > 0 && len(ra) > 1 {
				wins = fmt.Sprintf("%d/%d", n, pairs-ties)
			}
			fmt.Fprintf(w, "%-17s %-19s %12s %25s %12s %25s %+8.2f%% %6.2f%% %7s  %s\n",
				wl.Name, def.Name, fmtNum(median(va)), fmt.Sprintf("[%s %s]", fmtNum(aq1), fmtNum(aq3)),
				fmtNum(median(vb)), fmt.Sprintf("[%s %s]", fmtNum(bq1), fmtNum(bq3)), 100*worse, 100*def.Bound, wins, v)
		}
	}
	for _, wl := range workloads {
		ra, rb := a.perLayer[wl.Name], b.perLayer[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		type row struct {
			def    metricDef
			ma, mb float64
			rel    float64
		}
		var rows []row
		for _, def := range perLayer {
			va, vb := samplesOf(ra, def.Name, true), samplesOf(rb, def.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			if ma == mb {
				continue
			}
			rel := math.Inf(1)
			if ma != 0 {
				rel = math.Abs(mb-ma) / math.Abs(ma)
			}
			rows = append(rows, row{def, ma, mb, rel})
		}
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].rel > rows[j].rel })
		fmt.Fprintf(w, "\nper-layer deltas, %s (largest first; %d of %d metrics moved)\n", wl.Name, len(rows), len(perLayer))
		for _, r := range rows {
			kind := "sim"
			if r.def.Host {
				kind = "host"
			}
			fmt.Fprintf(w, "  %-34s %14s -> %-14s %+9.2f%%  %s, %s is better\n",
				r.def.Name, fmtNum(r.ma), fmtNum(r.mb), 100*(r.mb-r.ma)/math.Abs(r.ma), kind, r.def.Better)
		}
	}
	return nil
}
