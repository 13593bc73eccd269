// SLO-driven write admission control: 8 MB block writes are the other
// tail-latency monster besides erases, and when the read-latency error
// budget is burning, the right move is to delay or shed writes rather
// than let them destroy read p99 (DESIGN.md §16).
package coord

import (
	"time"

	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// Verdict is one admission decision.
type Verdict int

// Admission verdicts.
const (
	// Admitted let the write through immediately.
	Admitted Verdict = iota
	// Delayed admitted the write after a bounded virtual-time wait.
	Delayed
	// Shed refused the write: admitting it would have required more
	// than maxDelay of waiting at the current (burn-throttled) rate.
	Shed
)

// Fixed shape of the admission token bucket.
const (
	// burst is the token bucket depth: how many writes may be admitted
	// back-to-back after an idle stretch.
	burst = 4
	// maxDelay bounds how long one write may be delayed before it is
	// shed instead.
	maxDelay = 5 * time.Millisecond
	// minFactor floors the burn throttle: however badly the error
	// budget is burning, at least Rate*minFactor survives, so writes
	// are degraded, not starved.
	minFactor = 0.1
)

// AdmissionConfig tunes the write admission controller.
type AdmissionConfig struct {
	// Rate is the sustained admitted-write rate (writes/second of
	// virtual time) while the error budget is intact. 0 disables
	// admission control entirely (every write is Admitted).
	Rate float64
}

// DefaultAdmissionConfig admits rate writes/second.
func DefaultAdmissionConfig(rate float64) AdmissionConfig {
	return AdmissionConfig{Rate: rate}
}

// AdmissionStats are the controller's cumulative counters.
type AdmissionStats struct {
	Admitted, Delayed, Shed int64
}

// Admission is a deterministic token bucket whose refill rate is
// modulated by an SLO error-budget burn signal: while burn <= 1 (the
// objective is within budget) writes flow at the configured rate; once
// the budget is overspent the rate scales down as 1/burn (floored at
// minFactor), converting read-latency SLO pressure into write
// backpressure. Waiters reserve tokens (the bucket goes negative), so
// concurrent writers are delayed in deterministic arrival order.
//
// Best-effort mode bypasses the bucket entirely; the cluster flips it
// on when enough replicas are down that shedding writes would cost
// durability for nothing (graceful degradation).
type Admission struct {
	env        *sim.Env
	cfg        AdmissionConfig
	burn       func() float64
	tokens     float64
	last       time.Duration
	bestEffort bool

	admitted metrics.Counter
	delayed  metrics.Counter
	shed     metrics.Counter
}

// NewAdmission builds the controller. burn supplies the current
// error-budget burn of the protecting objective (metrics.SLO.Burn);
// nil means no SLO feedback (the bucket runs at full rate).
func NewAdmission(env *sim.Env, cfg AdmissionConfig, burn func() float64) *Admission {
	return &Admission{env: env, cfg: cfg, burn: burn, tokens: burst}
}

// SetBestEffort flips best-effort mode: while on, every write is
// Admitted without touching the bucket. Park-free.
func (a *Admission) SetBestEffort(on bool) { a.bestEffort = on }

// Stats returns the controller's cumulative counters.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		Admitted: a.admitted.Value(),
		Delayed:  a.delayed.Value(),
		Shed:     a.shed.Value(),
	}
}

// RegisterMetrics adopts the controller's counters into r.
func (a *Admission) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	if r == nil {
		return
	}
	r.RegisterCounter("admission_admitted_total", &a.admitted, labels...)
	r.RegisterCounter("admission_delayed_total", &a.delayed, labels...)
	r.RegisterCounter("admission_shed_total", &a.shed, labels...)
	r.GaugeFunc("admission_rate_factor", a.factor, labels...)
}

// factor maps the burn signal to a rate multiplier: full rate within
// budget, 1/burn beyond it, floored at minFactor.
func (a *Admission) factor() float64 {
	if a.burn == nil {
		return 1
	}
	b := a.burn()
	if b <= 1 {
		return 1
	}
	f := 1 / b
	if f < minFactor {
		f = minFactor
	}
	return f
}

// refill credits the bucket for virtual time elapsed at the given
// rate, capped at burst.
func (a *Admission) refill(rate float64) {
	now := a.env.Now()
	if now > a.last {
		a.tokens += rate * (now - a.last).Seconds()
		if a.tokens > burst {
			a.tokens = burst
		}
	}
	a.last = now
}

// Admit gates one write. It returns Admitted immediately when a token
// is available (or admission is off / best-effort), parks for the
// token's arrival when that wait fits in maxDelay (Delayed), and
// refuses the write otherwise (Shed) — the caller must not perform
// the write after Shed.
func (a *Admission) Admit(p *sim.Proc) Verdict {
	if a.bestEffort || a.cfg.Rate <= 0 {
		a.admitted.Inc()
		return Admitted
	}
	rate := a.cfg.Rate * a.factor()
	a.refill(rate)
	if a.tokens >= 1 {
		a.tokens--
		a.admitted.Inc()
		return Admitted
	}
	wait := time.Duration(float64(time.Second) * (1 - a.tokens) / rate)
	if wait > maxDelay {
		a.shed.Inc()
		return Shed
	}
	// Reserve the token (the bucket goes negative) so concurrent
	// writers queue behind this one in arrival order.
	a.tokens--
	a.delayed.Inc()
	t := a.env.Tracer()
	span := t.Begin(a.env.Now(), p.Span(), "admission/delay", trace.PhaseCoord)
	p.Wait(wait)
	t.End(a.env.Now(), span)
	return Delayed
}
