package metrics

import (
	"math"
	"strings"
	"testing"
	"time"

	"sdf/internal/sim"
)

func TestQuantileEdgeCases(t *testing.T) {
	h := NewHistogram()
	h.Observe(500 * time.Microsecond)
	// A single observation must answer every quantile with itself.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 500*time.Microsecond {
			t.Fatalf("single-observation Quantile(%v) = %v, want 500µs", q, got)
		}
	}
	h.Observe(1 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	if got := h.Quantile(0); got != 500*time.Microsecond {
		t.Fatalf("Quantile(0) = %v, want min", got)
	}
	if got := h.Quantile(1); got != 2*time.Millisecond {
		t.Fatalf("Quantile(1) = %v, want max", got)
	}
	// Out-of-range q clamps instead of extrapolating.
	if h.Quantile(-3) != h.Quantile(0) || h.Quantile(7) != h.Quantile(1) {
		t.Fatal("out-of-range q did not clamp to [0,1]")
	}
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Fatalf("Quantile(NaN) = %v, want 0", got)
	}
}

func TestNilInstrumentFastPaths(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("z")
	h.Observe(time.Second)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram accumulated")
	}
	r.GaugeFunc("f", func() float64 { return 1 })
	r.RegisterCounter("x", &Counter{})
	r.Each(func(*Instrument) { t.Fatal("nil registry has instruments") })
	if r.Get("x") != nil {
		t.Fatal("nil registry not empty")
	}
}

func TestRegistryCreateOrGet(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reads", L("dev", "sdf"))
	b := r.Counter("reads", L("dev", "sdf"))
	if a != b {
		t.Fatal("same series returned distinct counters")
	}
	other := r.Counter("reads", L("dev", "gen3"))
	if a == other {
		t.Fatal("distinct label sets shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind collision did not panic")
		}
	}()
	r.Gauge("reads", L("dev", "sdf"))
}

func TestRegistryAdoptedCounterCannotDrift(t *testing.T) {
	// The consolidation contract: a component's own stats field and
	// the exported series are the same storage.
	r := NewRegistry()
	var internal Counter
	r.RegisterCounter("cluster_failovers", &internal)
	internal.Add(7)
	if got := r.Get("cluster_failovers").Counter.Value(); got != 7 {
		t.Fatalf("registry sees %d, internal counter has 7", got)
	}
	r.Counter("cluster_failovers").Inc()
	if internal.Value() != 8 {
		t.Fatalf("internal counter %d after registry increment, want 8", internal.Value())
	}
}

func TestEachDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta")
	r.Gauge("alpha", L("dev", "b"))
	r.Gauge("alpha", L("dev", "a"))
	r.Histogram("mid")
	var ids []string
	r.Each(func(in *Instrument) { ids = append(ids, in.ID()) })
	want := []string{`alpha{dev="a"}`, `alpha{dev="b"}`, "mid", "zeta"}
	if len(ids) != len(want) {
		t.Fatalf("got %d instruments, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("order[%d] = %q, want %q", i, ids[i], want[i])
		}
	}
}

func TestHistogramDeltaQuantile(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond)
	}
	prev := h.State()
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}
	delta := h.State().Delta(prev)
	if delta.Count() != 100 {
		t.Fatalf("delta count %d, want 100", delta.Count())
	}
	// The delta must see only the slow window, not the fast history.
	if p50 := delta.Quantile(0.5); p50 < 9*time.Millisecond || p50 > 11*time.Millisecond {
		t.Fatalf("delta p50 %v, want ~10ms", p50)
	}
	if empty := h.State().Delta(h.State()); empty.Count() != 0 || empty.Quantile(0.99) != 0 {
		t.Fatal("identical states produced a non-empty delta")
	}
}

func TestSamplerScrapesOnVirtualPeriod(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	r := NewRegistry()
	c := r.Counter("ops")
	depth := 0
	r.GaugeFunc("queue_depth", func() float64 { return float64(depth) })
	s := NewSampler(env, r, 10*time.Millisecond, 0)
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			c.Inc()
			depth = i
			p.Wait(10 * time.Millisecond)
		}
	})
	env.RunUntil(105 * time.Millisecond)
	pts := s.series["ops"]
	if len(pts) != 10 {
		t.Fatalf("got %d points, want 10", len(pts))
	}
	if pts[0].T != 10*time.Millisecond || pts[9].T != 100*time.Millisecond {
		t.Fatalf("sample instants %v..%v, want 10ms..100ms", pts[0].T, pts[9].T)
	}
	if pts[0].V != 1 || pts[9].V != 10 {
		t.Fatalf("counter samples %v..%v, want 1..10", pts[0].V, pts[9].V)
	}
	gq := s.series["queue_depth"]
	if gq[4].V != 4 {
		t.Fatalf("gauge func sample %v, want 4", gq[4].V)
	}
}

func TestSamplerWindowKeep(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	r := NewRegistry()
	c := r.Counter("n")
	s := NewSampler(env, r, time.Millisecond, 5)
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			c.Inc()
			p.Wait(time.Millisecond)
		}
	})
	env.RunUntil(25 * time.Millisecond)
	pts := s.series["n"]
	if len(pts) != 5 {
		t.Fatalf("windowed store kept %d points, want 5", len(pts))
	}
	if pts[0].T < 20*time.Millisecond {
		t.Fatalf("oldest kept point at %v; the window should hold only the most recent samples", pts[0].T)
	}
}

func TestPrometheusSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("reads", L("dev", "sdf")).Add(3)
	r.Gauge("depth").Set(2.5)
	h := r.Histogram("lat")
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	out := string(Snapshot(r))
	for _, want := range []string{
		"# TYPE depth gauge\n",
		"depth 2.5\n",
		"# TYPE lat histogram\n",
		`lat_bucket{le="+Inf"} 2`,
		"lat_count 2\n",
		"# TYPE reads counter\n",
		`reads{dev="sdf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesJSONLSuppressesZeroSeries(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	r := NewRegistry()
	r.Counter("idle")
	busy := r.Counter("busy")
	s := NewSampler(env, r, time.Millisecond, 0)
	env.Go("load", func(p *sim.Proc) {
		busy.Inc()
		p.Wait(5 * time.Millisecond)
	})
	env.RunUntil(4 * time.Millisecond)
	out := string(SeriesJSONL(s))
	if strings.Contains(out, `"idle"`) {
		t.Fatalf("all-zero series exported:\n%s", out)
	}
	if !strings.Contains(out, `{"series":"busy","points":[[1000000,1],`) {
		t.Fatalf("busy series missing or misencoded:\n%s", out)
	}
}
