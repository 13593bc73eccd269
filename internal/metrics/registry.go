package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Label is one name dimension of an instrument. Instruments with the
// same name but different label sets are distinct series, exactly as
// in Prometheus.
type Label struct{ Key, Value string }

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count: either incremented
// directly or backed by a callback (see Registry.CounterFunc). The
// zero value is ready to use, and all methods are nil-safe so callers
// can hold a counter that may or may not exist (nil-registry fast
// path).
type Counter struct {
	v  int64
	fn func() int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add accumulates n. No-op on callback-backed counters.
func (c *Counter) Add(n int64) {
	if c != nil && c.fn == nil {
		c.v += n
	}
}

// Value returns the current count, invoking the callback if one is
// installed.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return c.fn()
	}
	return c.v
}

// Gauge is an instantaneous value: either set explicitly or backed by
// a callback (see Registry.GaugeFunc). All methods are nil-safe.
type Gauge struct {
	v  float64
	fn func() float64
}

// Set replaces the value. Setting a callback-backed gauge is a no-op.
func (g *Gauge) Set(v float64) {
	if g != nil && g.fn == nil {
		g.v = v
	}
}

// Add shifts the value by d. No-op on callback-backed gauges.
func (g *Gauge) Add(d float64) {
	if g != nil && g.fn == nil {
		g.v += d
	}
}

// Value returns the current value, invoking the callback if one is
// installed.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return g.v
}

// Kind tags what an instrument measures.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Instrument is one registered series: a name, its sorted labels, and
// exactly one of the three instrument types.
type Instrument struct {
	Name   string
	Labels []Label
	Kind   Kind

	Counter   *Counter
	Gauge     *Gauge
	Histogram *Histogram
}

// ID returns the canonical series identity: name{k1="v1",k2="v2"}
// with labels sorted by key. Two instruments are the same series iff
// their IDs are equal.
func (in *Instrument) ID() string { return seriesID(in.Name, in.Labels) }

func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
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

// Registry is a labeled instrument namespace with deterministic
// iteration order. A nil *Registry is fully usable: every lookup
// returns a nil instrument whose methods are no-ops, so instrumented
// code pays one nil check when metrics are off.
//
// Registration is create-or-get: asking twice for the same name and
// labels returns the same instrument. Asking for an existing series
// with a different kind panics — that is a naming bug, and silently
// returning a fresh instrument would fork the series.
type Registry struct {
	byID map[string]*Instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byID: make(map[string]*Instrument)} }

// lookup finds or creates the series, panicking on kind collisions.
func (r *Registry) lookup(name string, kind Kind, labels []Label) *Instrument {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	id := seriesID(name, ls)
	if in, ok := r.byID[id]; ok {
		if in.Kind != kind {
			panic(fmt.Sprintf("metrics: series %s registered as %v and requested as %v", id, in.Kind, kind))
		}
		return in
	}
	in := &Instrument{Name: name, Labels: ls, Kind: kind}
	r.byID[id] = in
	return in
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	in := r.lookup(name, KindCounter, labels)
	if in.Counter == nil {
		in.Counter = &Counter{}
	}
	return in.Counter
}

// RegisterCounter adopts an existing counter as the named series, so
// a component's internal stats field and the exported metric are the
// same storage and cannot drift. Adopting over an existing distinct
// counter panics.
func (r *Registry) RegisterCounter(name string, c *Counter, labels ...Label) {
	if r == nil || c == nil {
		return
	}
	in := r.lookup(name, KindCounter, labels)
	if in.Counter != nil && in.Counter != c {
		panic(fmt.Sprintf("metrics: series %s already has a different counter", in.ID()))
	}
	in.Counter = c
}

// CounterFunc installs a callback-backed counter, for components that
// already keep a cumulative count and only need to export it. fn must
// be monotone non-decreasing and, like every registry callback, runs
// inline at scrape time: it must compute from in-memory state and
// never park a process (sdflint's parkpath enforces this).
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	in := r.lookup(name, KindCounter, labels)
	if in.Counter != nil && in.Counter.fn == nil {
		panic(fmt.Sprintf("metrics: series %s already registered as a direct counter", in.ID()))
	}
	in.Counter = &Counter{fn: fn}
}

// Gauge returns the named set-style gauge, creating it if needed.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	in := r.lookup(name, KindGauge, labels)
	if in.Gauge == nil {
		in.Gauge = &Gauge{}
	}
	return in.Gauge
}

// GaugeFunc installs a callback-backed gauge: fn is invoked at every
// scrape and snapshot. fn runs inline on whatever goroutine samples
// the registry — like a (*sim.Env).Schedule callback it must compute
// from in-memory state and return; it must never park a process or
// call any blocking simulation API (sdflint's parkpath enforces
// this).
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	in := r.lookup(name, KindGauge, labels)
	if in.Gauge != nil && in.Gauge.fn == nil {
		panic(fmt.Sprintf("metrics: series %s already registered as a set-style gauge", in.ID()))
	}
	in.Gauge = &Gauge{fn: fn}
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	in := r.lookup(name, KindHistogram, labels)
	if in.Histogram == nil {
		in.Histogram = NewHistogram()
	}
	return in.Histogram
}

// Each visits every instrument in canonical (sorted-ID) order — the
// deterministic iteration the exporters and sampler depend on.
func (r *Registry) Each(fn func(*Instrument)) {
	if r == nil {
		return
	}
	ids := make([]string, 0, len(r.byID))
	for id := range r.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fn(r.byID[id])
	}
}

// Get returns the instrument with the given canonical ID, or nil.
func (r *Registry) Get(id string) *Instrument {
	if r == nil {
		return nil
	}
	return r.byID[id]
}

// value reduces an instrument to the scalar the sampler records:
// counters report their running total, gauges their
// current value, histograms their observation count (the distribution
// itself is exported via the snapshot and the SLO engine's windows).
func (in *Instrument) value() float64 {
	switch in.Kind {
	case KindCounter:
		return float64(in.Counter.Value())
	case KindGauge:
		return in.Gauge.Value()
	case KindHistogram:
		return float64(in.Histogram.Count())
	}
	return 0
}
