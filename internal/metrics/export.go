package metrics

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// The exporters are determinism gates, like the trace writers: every
// byte they emit is a function of simulation state and virtual time
// only, instruments are visited in canonical sorted-ID order, and
// floats are rendered with strconv's shortest round-trip form — so
// two seeded runs of the same binary produce byte-identical output
// and SnapshotHash/SeriesHash fingerprint a run the way trace.Hash
// does.

// fmtFloat renders a float64 deterministically.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabels renders a sorted label set in Prometheus text form.
func promLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// labelsWith returns labels plus one extra pair, keeping sorted order
// (used for histogram le buckets, which Prometheus sorts last anyway;
// we simply append).
func labelsWith(labels []Label, key, value string) string {
	var b strings.Builder
	b.WriteByte('{')
	for _, l := range labels {
		fmt.Fprintf(&b, "%s=%q,", l.Key, l.Value)
	}
	fmt.Fprintf(&b, "%s=%q", key, value)
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes a text-format snapshot of the registries in
// canonical order: instruments sorted by series ID within each
// registry, registries in argument order (callers pass them in a
// fixed order, e.g. one per simulated device). Histograms export
// cumulative le buckets (upper bounds in seconds) for their non-empty
// buckets plus +Inf, _sum in seconds, and _count. Durations are
// seconds, per Prometheus convention.
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	typed := make(map[string]bool)
	for _, reg := range regs {
		var err error
		reg.Each(func(in *Instrument) {
			if err != nil {
				return
			}
			err = writeInstrument(w, in, typed)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func writeInstrument(w io.Writer, in *Instrument, typed map[string]bool) error {
	if !typed[in.Name] {
		typed[in.Name] = true
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", in.Name, in.Kind); err != nil {
			return err
		}
	}
	ls := promLabels(in.Labels)
	switch in.Kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", in.Name, ls, in.Counter.Value())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", in.Name, ls, fmtFloat(in.Gauge.Value()))
		return err
	case KindHistogram:
		return writeHistogram(w, in)
	}
	return nil
}

func writeHistogram(w io.Writer, in *Instrument) error {
	h := in.Histogram
	var cum uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		le := math.Pow(bucketBase, float64(b)+1) / float64(time.Second)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			in.Name, labelsWith(in.Labels, "le", fmtFloat(le)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		in.Name, labelsWith(in.Labels, "le", "+Inf"), h.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		in.Name, promLabels(in.Labels), fmtFloat(h.Sum().Seconds())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", in.Name, promLabels(in.Labels), h.Count())
	return err
}

// Snapshot renders the registries to the Prometheus text snapshot.
func Snapshot(regs ...*Registry) []byte {
	var b strings.Builder
	//sdflint:allow errdrop strings.Builder writes never fail
	_ = WritePrometheus(&b, regs...)
	return []byte(b.String())
}

// WriteSeriesJSONL writes the samplers' time series as one JSON line
// per series: {"series":"<id>","points":[[t_ns,v],...]}. Series are
// sorted by ID within each sampler; samplers appear in argument
// order. Series whose every sample is zero are suppressed — an idle
// instrument scraped 200 times is noise, and dropping it here keeps
// the export (and its hash) focused on series that moved. Timestamps
// are integer virtual nanoseconds, so no float formatting touches the
// time axis.
func WriteSeriesJSONL(w io.Writer, samplers ...*Sampler) error {
	var err error
	for _, s := range samplers {
		if s == nil {
			continue
		}
		s.eachSeries(func(id string, pts []Point) {
			if err != nil || allZero(pts) {
				return
			}
			var b strings.Builder
			fmt.Fprintf(&b, `{"series":%q,"points":[`, id)
			for i, pt := range pts {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "[%d,%s]", int64(pt.T), fmtFloat(pt.V))
			}
			b.WriteString("]}\n")
			_, err = io.WriteString(w, b.String())
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func allZero(pts []Point) bool {
	for _, pt := range pts {
		if pt.V != 0 {
			return false
		}
	}
	return true
}

// SeriesJSONL renders the samplers' series to bytes.
func SeriesJSONL(samplers ...*Sampler) []byte {
	var b strings.Builder
	//sdflint:allow errdrop strings.Builder writes never fail
	_ = WriteSeriesJSONL(&b, samplers...)
	return []byte(b.String())
}

// HashBytes fingerprints an export (snapshot or series stream) the
// way trace.Hash fingerprints an event stream.
func HashBytes(buf []byte) string {
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
