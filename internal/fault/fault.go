package fault

import (
	"fmt"
	"sort"
	"strings"

	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// Handler applies one injection to its target and returns the revert
// that undoes it, or nil when the fault has nothing to undo (a
// permanent kill, grown bad blocks, a hang that times out on its own).
type Handler func(in Injection) (revert func())

// Injector binds a Plan to a simulation. Attach helpers (AttachDevice,
// AttachGroup, AttachNetwork) register handlers under target names;
// Arm schedules every injection on the virtual clock. Each timed fault
// opens a fault-phase span from apply to revert, so the trace shows
// exactly which window of the run was degraded.
type Injector struct {
	env      *sim.Env
	handlers map[string]Handler

	applied  int
	reverted int
}

// NewInjector builds an empty injector on env.
func NewInjector(env *sim.Env) *Injector {
	return &Injector{env: env, handlers: make(map[string]Handler)}
}

// Register installs the handler for a target name, replacing any
// previous registration.
func (inj *Injector) Register(target string, h Handler) {
	inj.handlers[target] = h
}

// Targets returns the registered target names, sorted.
func (inj *Injector) Targets() []string {
	ts := make([]string, 0, len(inj.handlers))
	for t := range inj.handlers {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	return ts
}

// Stats returns how many injections have fired and how many timed
// faults have been reverted so far.
func (inj *Injector) Stats() (applied, reverted int) {
	return inj.applied, inj.reverted
}

// RegisterMetrics exports the injector's counters plus an
// active-injections gauge (applied minus reverted: the timed faults
// currently degrading the run, plus any permanent ones). Sampled over
// time, the gauge marks exactly which windows of a run were under
// fault — the time axis SLO violations line up against.
func (inj *Injector) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	if r == nil {
		return
	}
	r.CounterFunc("fault_applied_total", func() int64 { return int64(inj.applied) }, labels...)
	r.CounterFunc("fault_reverted_total", func() int64 { return int64(inj.reverted) }, labels...)
	r.GaugeFunc("fault_active_injections", func() float64 {
		return float64(inj.applied - inj.reverted)
	}, labels...)
}

// Arm validates the plan against the registered targets and schedules
// every injection. Injection times are relative to the moment Arm is
// called, so a simulation can finish its setup phase (preload, warm
// fill) first and the plan still fires at the intended offsets into
// the measured run.
func (inj *Injector) Arm(pl *Plan) error {
	if err := pl.Validate(); err != nil {
		return err
	}
	var missing []string
	for _, in := range pl.Injections {
		if _, ok := inj.handlers[in.Target]; !ok {
			missing = append(missing, in.Target)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("fault: no handler for target(s) %s (registered: %s)",
			strings.Join(missing, ", "), strings.Join(inj.Targets(), ", "))
	}
	for _, in := range pl.Injections {
		// A recurring injection expands into its occurrences here, each
		// scheduled as an ordinary one-shot: the fire order is fixed at
		// arm time, so a recurring plan replays as deterministically as
		// a flat one.
		for k := 0; k < in.occurrences(); k++ {
			occ := in.occurrence(k)
			inj.env.Schedule(occ.At, func() { inj.apply(occ) })
		}
	}
	return nil
}

func (inj *Injector) apply(in Injection) {
	t := inj.env.Tracer()
	name := "fault/" + string(in.Kind) + ":" + in.Target
	span := t.Begin(inj.env.Now(), 0, name, trace.PhaseFault)
	revert := inj.handlers[in.Target](in)
	inj.applied++
	if in.Duration > 0 && revert != nil {
		inj.env.Schedule(in.Duration, func() {
			revert()
			inj.reverted++
			t.End(inj.env.Now(), span)
		})
		return
	}
	t.End(inj.env.Now(), span)
}
