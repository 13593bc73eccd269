package metrics

import (
	"sort"
	"time"

	"sdf/internal/sim"
)

// Point is one time-series sample: a virtual-time instant and the
// instrument's value at that instant.
type Point struct {
	T time.Duration
	V float64
}

// Sampler scrapes a registry on a fixed virtual period into a
// windowed per-series store. It runs as an ordinary simulation
// process, so its samples land at deterministic virtual instants and
// two seeded runs produce byte-identical series.
//
// Every registered instrument is reduced to one scalar per scrape
// (counters: running total; gauges: current value,
// invoking GaugeFunc callbacks; histograms: observation count).
// Series whose samples are all zero are suppressed at export time,
// not at scrape time, so a series that becomes non-zero mid-run keeps
// its full history.
type Sampler struct {
	env    *sim.Env
	reg    *Registry
	period time.Duration
	keep   int

	series map[string][]Point
}

// NewSampler starts a sampler scraping reg every period of virtual
// time. keep bounds the window: each series retains at most keep most
// recent points (0 keeps everything). A nil registry yields a sampler
// that never records anything.
func NewSampler(env *sim.Env, reg *Registry, period time.Duration, keep int) *Sampler {
	if period <= 0 {
		period = 10 * time.Millisecond
	}
	s := &Sampler{env: env, reg: reg, period: period, keep: keep, series: make(map[string][]Point)}
	env.Go("metrics/sampler", s.loop)
	return s
}

// loop is the scrape process: it samples forever on the fixed period
// and dies with the simulation.
func (s *Sampler) loop(p *sim.Proc) {
	for {
		p.Wait(s.period)
		s.Scrape()
	}
}

// Scrape records one sample of every registered instrument at the
// current virtual instant. The sampler's own process calls this on
// the period; tests and snapshot points may call it directly.
func (s *Sampler) Scrape() {
	now := s.env.Now()
	s.reg.Each(func(in *Instrument) {
		id := in.ID()
		pts := append(s.series[id], Point{T: now, V: in.value()})
		if s.keep > 0 && len(pts) > s.keep {
			pts = pts[len(pts)-s.keep:]
		}
		s.series[id] = pts
	})
}

// eachSeries visits the recorded series in sorted-ID order.
func (s *Sampler) eachSeries(fn func(id string, pts []Point)) {
	ids := make([]string, 0, len(s.series))
	for id := range s.series {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fn(id, s.series[id])
	}
}
