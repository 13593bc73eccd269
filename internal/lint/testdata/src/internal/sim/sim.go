// Package sim stands in for the real scheduler package: the one place
// where the raw go primitive is legal, because this is where the
// deterministic handoff is implemented. The types below mirror just
// enough of the kernel's surface (Env, Proc, Timeline, Resource) for
// the parkpath fixtures to type-check.
package sim

// Go runs fn as a (fixture) scheduler-owned process.
func Go(fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	<-done
}

// Env is the fixture scheduler.
type Env struct{}

// Schedule runs fn inline on the scheduler goroutine after d ticks.
func (e *Env) Schedule(d int, fn func()) { fn() }

// Go spawns fn as a fresh process, where blocking is legal.
func (e *Env) Go(name string, fn func(p *Proc)) { fn(&Proc{}) }

// Handle makes h a callback handle: fn runs inline, on the scheduler
// goroutine, wherever h is woken.
func (e *Env) Handle(h *Proc, fn func()) *Proc { return h }

// Wake runs the handle h after d ticks, without parking anyone.
func (e *Env) Wake(h *Proc, d int) {}

// Proc is one simulated process.
type Proc struct{}

// Wait parks the process for d ticks.
func (p *Proc) Wait(d int) {}

// WaitUntil parks the process until the absolute instant at.
func (p *Proc) WaitUntil(at int) {}

// Await parks the process until s fires.
func (p *Proc) Await(s *Signal) {}

// Join parks until other completes.
func (p *Proc) Join(other *Proc) {}

// Signal is a broadcast wakeup.
type Signal struct{}

// Enroll makes the handle h a waiter of s without parking anyone.
func (s *Signal) Enroll(h *Proc) bool { return true }

// Timeline is a timed-occupancy resource.
type Timeline struct{}

// Occupy parks p until its claim completes.
func (t *Timeline) Occupy(p *Proc, hold int) {}

// Reserve claims hold without parking.
func (t *Timeline) Reserve(hold int) (start, end int) { return 0, 0 }

// Resource is a FIFO counted resource.
type Resource struct{}

// Acquire parks p until a unit is free.
func (r *Resource) Acquire(p *Proc) {}

// Release frees a unit.
func (r *Resource) Release() {}
