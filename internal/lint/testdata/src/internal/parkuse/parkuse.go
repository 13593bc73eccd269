// Package parkuse exercises the inlinepark analyzer: inline scheduler
// callbacks run on the scheduler goroutine itself, so any call that
// parks a process from one deadlocks the simulation.
package parkuse

import "fixture/internal/sim"

// BadDirect parks through Proc methods inside inline callbacks.
func BadDirect(env *sim.Env, tl *sim.Timeline, p *sim.Proc, s *sim.Signal) {
	env.Schedule(5, func() {
		p.Wait(1) // want(inlinepark)
	})
	env.Schedule(3, func() {
		p.WaitUntil(9) // want(inlinepark)
		p.Await(s)     // want(inlinepark)
	})
}

// BadIndirect parks by handing a *sim.Proc to a blocking API.
func BadIndirect(env *sim.Env, tl *sim.Timeline, res *sim.Resource, p *sim.Proc) {
	env.Schedule(1, func() {
		res.Acquire(p) // want(inlinepark)
	})
	env.Schedule(2, func() {
		tl.Occupy(p, 2) // want(inlinepark)
	})
}

// Good shows the legal shapes: rescheduling, non-parking claims,
// spawning a fresh process, and blocking on the normal process path.
func Good(env *sim.Env, tl *sim.Timeline, p *sim.Proc) {
	env.Schedule(5, func() {
		env.Schedule(1, func() {}) // callbacks may chain callbacks
		_, _ = tl.Reserve(4)       // claims without parking are fine
	})
	env.Schedule(3, func() {
		env.Go("spawned", func(q *sim.Proc) {
			q.Wait(1) // fresh process context: blocking is legal
		})
	})
	p.Wait(5) // the ordinary process path blocks freely
}

// Waived shows a suppressed finding with its mandatory reason.
func Waived(env *sim.Env, p *sim.Proc) {
	env.Schedule(1, func() {
		//sdflint:allow inlinepark fixture demonstrating a waiver
		p.Wait(1)
	})
}
