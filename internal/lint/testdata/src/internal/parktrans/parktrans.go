// Package parktrans exercises the parkpath analyzer with blocking
// that inlinepark provably cannot see: the park hides below a call
// boundary, on a process handle that is stored in a struct — no
// *sim.Proc argument ever crosses the calls written in the callback.
package parktrans

import "fixture/internal/sim"

// worker stores the handle it blocks on.
type worker struct {
	proc *sim.Proc
}

// drain parks on the stored handle.
func (w *worker) drain() {
	w.proc.Wait(1)
}

// settle is an intermediate frame: the park is two hops down from its
// callers.
func (w *worker) settle() {
	w.drain()
}

// stop makes worker satisfy stopper; it blocks one hop down.
func (w *worker) stop() {
	w.drain()
}

// idle is the same shape as settle but never blocks.
func (w *worker) idle() {}

// stopper hides the blocking callee behind an interface: the graph
// resolves the call conservatively to every implementing method.
type stopper interface {
	stop()
}

// BadTransitive blocks two frames below a Schedule callback.
func BadTransitive(env *sim.Env, w *worker) {
	env.Schedule(1, func() {
		w.settle() // want(parkpath)
	})
}

// BadInterface blocks through an interface method call.
func BadInterface(env *sim.Env, s stopper) {
	env.Schedule(1, func() {
		s.stop() // want(parkpath)
	})
}

// GoodSpawn hands the blocking chain to a fresh process, where
// parking is legal.
func GoodSpawn(env *sim.Env, w *worker) {
	env.Schedule(1, func() {
		env.Go("drain", func(q *sim.Proc) {
			w.settle()
		})
	})
}

// GoodNonBlocking calls through the same depth without parking.
func GoodNonBlocking(env *sim.Env, w *worker) {
	env.Schedule(1, func() {
		w.idle()
	})
}

// GoodOutsideCallback may block transitively on the ordinary process
// path.
func GoodOutsideCallback(w *worker) {
	w.settle()
}

// Waived shows the suppressed form with its mandatory reason.
func Waived(env *sim.Env, w *worker) {
	env.Schedule(1, func() {
		//sdflint:allow parkpath fixture demonstrating a waiver
		w.settle()
	})
}
