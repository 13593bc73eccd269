// Package spanuse exercises the spanleak analyzer: a span begun on a
// path must be ended, handed off, or captured on every path out of the
// enclosing function — a leaked span never emits its end event and
// silently corrupts the trace hash.
package spanuse

import (
	"errors"

	"fixture/internal/sim"
	"fixture/internal/trace"
)

var errBoom = errors.New("boom")

// BadReturnPath leaks the span on the early error return.
func BadReturnPath(c *trace.Collector, fail bool) error {
	span := c.Begin(0, 0, "op", trace.PhaseFlash) // want(spanleak)
	if fail {
		return errBoom
	}
	c.End(1, span)
	return nil
}

// BadFallOff ends the span on one branch only and falls off the end
// of the function with it open on the other.
func BadFallOff(c *trace.Collector, n int) {
	span := c.Begin(0, 0, "op", trace.PhaseFlash) // want(spanleak)
	if n > 0 {
		c.End(1, span)
	}
}

// BadInClosure leaks inside a spawned process body: each function
// literal is checked on its own.
func BadInClosure(env *sim.Env, c *trace.Collector, fail bool) {
	env.Go("worker", func(p *sim.Proc) {
		span := c.Begin(0, 0, "op", trace.PhaseFlash) // want(spanleak)
		if fail {
			return
		}
		c.End(1, span)
	})
}

// GoodLinear ends the span on the only path.
func GoodLinear(c *trace.Collector) {
	span := c.Begin(0, 0, "op", trace.PhaseFlash)
	c.End(1, span)
}

// GoodDefer covers every later exit with a deferred End.
func GoodDefer(c *trace.Collector, fail bool) error {
	span := c.Begin(0, 0, "op", trace.PhaseFlash)
	defer func() { c.End(1, span) }()
	if fail {
		return errBoom
	}
	return nil
}

// GoodBothBranches ends the span before each return.
func GoodBothBranches(c *trace.Collector, fail bool) error {
	span := c.Begin(0, 0, "op", trace.PhaseFlash)
	if fail {
		c.End(1, span)
		return errBoom
	}
	c.End(1, span)
	return nil
}

// GoodHandoffClosure hands the span to a scheduled callback — the
// deferred-end-in-virtual-time idiom the real tree uses for faults
// with a duration.
func GoodHandoffClosure(env *sim.Env, c *trace.Collector) {
	span := c.Begin(0, 0, "op", trace.PhaseFlash)
	env.Schedule(3, func() { c.End(1, span) })
}

// GoodReturned hands the span to the caller.
func GoodReturned(c *trace.Collector) trace.SpanID {
	span := c.Begin(0, 0, "op", trace.PhaseFlash)
	return span
}

// GoodTerminatingBranch ends on the happy path; the error branch
// returns early and is judged on its own (it ends the span too).
func GoodTerminatingBranch(c *trace.Collector, fail bool) error {
	span := c.Begin(0, 0, "op", trace.PhaseFlash)
	if fail {
		c.End(1, span)
		return errBoom
	}
	c.End(2, span)
	return nil
}

// Waived shows the suppressed form with its mandatory reason.
func Waived(c *trace.Collector, fail bool) {
	//sdflint:allow spanleak fixture demonstrating a waiver
	span := c.Begin(0, 0, "op", trace.PhaseFlash)
	if fail {
		return
	}
	c.End(1, span)
}

// BadSwitchReturn leaks the span on the case that returns early; each
// case is judged from the state before the switch.
func BadSwitchReturn(c *trace.Collector, n int) error {
	span := c.Begin(0, 0, "op", trace.PhaseFlash) // want(spanleak)
	switch n {
	case 0:
		return errBoom
	case 1:
		c.End(1, span)
		return nil
	}
	c.End(2, span)
	return nil
}

// BadSwitchFallThrough leaves the span open on a case that falls out
// of the switch: a default does not cover the fall-through unless
// every branch ends the span.
func BadSwitchFallThrough(c *trace.Collector, n int) {
	span := c.Begin(0, 0, "op", trace.PhaseFlash) // want(spanleak)
	switch n {
	case 0:
	default:
		c.End(1, span)
	}
}

// GoodSwitchDefault ends the span on every branch of a switch with a
// default, so falling out of the switch leaves nothing open.
func GoodSwitchDefault(c *trace.Collector, n int) {
	span := c.Begin(0, 0, "op", trace.PhaseFlash)
	switch {
	case n > 0:
		c.End(1, span)
	case n < 0:
		c.End(2, span)
	default:
		c.End(3, span)
	}
}

// GoodSelectCases ends the span in the select's comm case: a select
// without a default blocks until a case runs, so that case covers the
// fall-through.
func GoodSelectCases(c *trace.Collector, done <-chan struct{}) {
	span := c.Begin(0, 0, "op", trace.PhaseFlash)
	select {
	case <-done:
		c.End(1, span)
	}
}
