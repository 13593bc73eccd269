// Package metricuse exercises the metrics-aware analyzer rules:
// registry callbacks (GaugeFunc/CounterFunc) are invoked inline at
// scrape and export time — sometimes outside any process, after the
// run — so they must be park-free reads, and the exporters' write
// errors are the only signal that an export is truncated, so they
// must be bound.
package metricuse

import (
	"fixture/internal/metrics"
	"fixture/internal/sim"
)

// BadGaugePark parks a process inside a gauge callback.
func BadGaugePark(reg *metrics.Registry, p *sim.Proc) {
	reg.GaugeFunc("queue_depth", func() float64 {
		p.Wait(1) // want(parkpath)
		return 0
	})
}

// BadCounterAcquire hands a *sim.Proc to a blocking API inside a
// counter callback.
func BadCounterAcquire(reg *metrics.Registry, res *sim.Resource, p *sim.Proc) {
	reg.CounterFunc("ops_total", func() int64 {
		res.Acquire(p) // want(parkpath)
		return 0
	})
}

// pump stores the handle it blocks on, so no *sim.Proc crosses the
// call written in the callback — only the call graph sees the park.
type pump struct {
	proc *sim.Proc
}

func (w *pump) drain() {
	w.proc.Wait(1)
}

// BadTransitive blocks one frame below a gauge callback.
func BadTransitive(reg *metrics.Registry, w *pump) {
	reg.GaugeFunc("backlog", func() float64 {
		w.drain() // want(parkpath)
		return 0
	})
}

// BadExport discards the exporter's write error.
func BadExport(reg *metrics.Registry) {
	metrics.WritePrometheus(reg) // want(errdrop)
}

// unrelated has a same-named method; its callbacks are not registry
// callbacks and may block.
type unrelated struct{}

func (unrelated) GaugeFunc(name string, fn func() float64) {}

// Good shows the legal shapes: park-free reads in callbacks, the
// same-named method on an unrelated receiver, and a bound export
// error.
func Good(reg *metrics.Registry, u unrelated, p *sim.Proc, v *int64) error {
	reg.GaugeFunc("free_blocks", func() float64 { return float64(*v) })
	reg.CounterFunc("reads_total", func() int64 { return *v })
	u.GaugeFunc("not_a_registry", func() float64 {
		p.Wait(1) // unrelated receiver: blocking is out of scope
		return 0
	})
	return metrics.WritePrometheus(reg)
}

// Waived shows the suppressed form with its mandatory reason.
func Waived(reg *metrics.Registry, p *sim.Proc) {
	reg.GaugeFunc("waived", func() float64 {
		//sdflint:allow parkpath fixture demonstrating a waiver
		p.Wait(1)
		return 0
	})
}
