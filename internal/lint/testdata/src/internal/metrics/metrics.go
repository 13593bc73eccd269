// Package metrics stands in for the real metrics registry: enough of
// the surface (Registry, the callback-backed instruments, and an
// error-returning exporter) for the parkpath and errdrop
// fixtures to type-check.
package metrics

// Label is one name=value dimension on a series.
type Label struct{ Key, Value string }

// Registry holds labeled instruments.
type Registry struct{}

// GaugeFunc registers a gauge whose value is read by calling fn
// inline at scrape and export time; fn must not park.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {}

// CounterFunc registers a counter whose total is read by calling fn
// inline at scrape and export time; fn must not park.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {}

// WritePrometheus writes a text snapshot of the registries and
// reports the writer's error.
func WritePrometheus(regs ...*Registry) error { return nil }
