package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// metricsSummarize reads a Prometheus text snapshot written by
// sdfbench -metrics and prints one line per metric family: its type,
// how many labeled series it holds, and the value spread.
func metricsSummarize(w io.Writer, path string) error {
	families, order, err := readProm(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d series in %d families\n\n", path, countSeries(families), len(order))
	fmt.Fprintf(w, "%-42s %-9s %7s %14s %14s\n", "family", "type", "series", "min", "max")
	for _, name := range order {
		f := families[name]
		min, max := f.series[0].value, f.series[0].value
		for _, s := range f.series[1:] {
			if s.value < min {
				min = s.value
			}
			if s.value > max {
				max = s.value
			}
		}
		fmt.Fprintf(w, "%-42s %-9s %7d %14s %14s\n", name, f.typ, len(f.series),
			strconv.FormatFloat(min, 'g', 6, 64), strconv.FormatFloat(max, 'g', 6, 64))
	}
	return nil
}

// metricsQuery reads a metrics JSONL time series written by sdfbench
// -metrics and prints every series whose ID contains the pattern:
// point count, time span, and first/last/min/max values.
func metricsQuery(w io.Writer, path, pattern string) error {
	rows, err := readSeriesJSONL(path)
	if err != nil {
		return err
	}
	matched := 0
	for _, r := range rows {
		if !strings.Contains(r.Series, pattern) {
			continue
		}
		matched++
		if len(r.Points) == 0 {
			fmt.Fprintf(w, "%s: no points\n", r.Series)
			continue
		}
		first, last := r.Points[0], r.Points[len(r.Points)-1]
		min, max := first[1], first[1]
		for _, p := range r.Points[1:] {
			if p[1] < min {
				min = p[1]
			}
			if p[1] > max {
				max = p[1]
			}
		}
		fmt.Fprintf(w, "%s\n  %d points over %v..%v  first %g  last %g  min %g  max %g\n",
			r.Series, len(r.Points),
			time.Duration(int64(first[0])), time.Duration(int64(last[0])),
			first[1], last[1], min, max)
	}
	if matched == 0 {
		return fmt.Errorf("no series matching %q in %s", pattern, path)
	}
	return nil
}

// promFamily is one metric family from a text snapshot.
type promFamily struct {
	typ    string
	series []promSeries
}

type promSeries struct {
	id    string
	value float64
}

// readProm parses the subset of the Prometheus text format that the
// exporter writes: "# TYPE name type" headers followed by
// "name{labels} value" samples. Returns families keyed by name plus
// the file's (sorted) family order.
func readProm(path string) (map[string]*promFamily, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	families := make(map[string]*promFamily)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return nil, nil, fmt.Errorf("%s: malformed TYPE line %q", path, line)
			}
			families[parts[2]] = &promFamily{typ: parts[3]}
			order = append(order, parts[2])
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, nil, fmt.Errorf("%s: malformed sample line %q", path, line)
		}
		id, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: bad value in %q: %v", path, line, err)
		}
		name := id
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		// Histogram samples (name_bucket, name_sum, name_count) belong
		// to the family declared for the bare name.
		fam := families[name]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam == nil && strings.HasSuffix(name, suffix) {
				fam = families[strings.TrimSuffix(name, suffix)]
			}
		}
		if fam == nil {
			return nil, nil, fmt.Errorf("%s: sample %q has no TYPE header", path, id)
		}
		fam.series = append(fam.series, promSeries{id: id, value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("%s: no metric families found", path)
	}
	return families, order, nil
}

func countSeries(families map[string]*promFamily) int {
	n := 0
	for _, f := range families {
		n += len(f.series)
	}
	return n
}

// seriesRow is one line of the JSONL time-series export.
type seriesRow struct {
	Series string       `json:"series"`
	Points [][2]float64 `json:"points"`
}

func readSeriesJSONL(path string) ([]seriesRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []seriesRow
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r seriesRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}
