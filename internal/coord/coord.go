// Package coord is the deterministic erase/write co-scheduling layer
// (DESIGN.md §16). It is the RackBlox-style network-storage co-design
// piece of the stack: the block layer advertises pending background
// erase work as deferrable windows, and a per-slice Coordinator grants
// those windows so no two live replicas of a slice are inside a
// program/erase window at once. The cluster's read routing consults
// the same window state (Member.InWindow) to steer reads away from
// the replica currently paying its 3 ms erases.
//
// Determinism: members are registered in a fixed order, grants walk
// that order round-robin starting just past the previous grantee, and
// every state transition happens either in a simulation process or in
// a park-free scheduled callback — so two seeded runs produce
// byte-identical grant sequences.
//
// Starvation bound: a member whose request is deferred too long
// (MaxWait), or whose free-block pool is about to run dry
// (ForceFreeBlocks), erases anyway through a forced-erase escape
// hatch. Deferral can therefore delay reclaim but never exhaust a
// channel's free blocks; the Forced counter measures how often the
// hatch fired.
package coord

import (
	"time"

	"sdf/internal/metrics"
	"sdf/internal/sim"
	"sdf/internal/trace"
)

// Config tunes a Coordinator.
type Config struct {
	// Window is how long a granted erase window stays open to new
	// erases from the holder. Erases admitted before the window closes
	// run to completion; the window is handed on once they drain, so
	// its true length is bounded by Window plus one erase.
	Window time.Duration
	// MaxWait is the starvation bound: a member whose window request
	// has been deferred this long erases through the forced hatch
	// instead of waiting further. 0 uses the default.
	MaxWait time.Duration
	// ForceFreeBlocks is the urgency threshold: a caller whose free
	// pool is at or below this many pre-erased blocks skips the grant
	// queue entirely (forced erase), because deferring reclaim any
	// further risks ErrNoSpace on the foreground write path.
	ForceFreeBlocks int
}

// Stats are the coordinator's cumulative counters.
type Stats struct {
	// Grants counts erase windows granted.
	Grants int64
	// Deferrals counts window requests that had to park because a
	// peer replica held the window.
	Deferrals int64
	// Forced counts erases through the escape hatch: the free pool
	// hit ForceFreeBlocks, or a deferred request aged past MaxWait.
	Forced int64
	// Timeouts counts the subset of Forced that came from MaxWait
	// expiring (the starvation bound proper).
	Timeouts int64
}

// Coordinator grants erase windows across the replicas of one slice.
type Coordinator struct {
	env     *sim.Env
	cfg     Config
	members []*Member
	holder  int // index of the member holding the window, -1 if none
	next    int // round-robin scan start for the next grant

	grants    metrics.Counter
	deferrals metrics.Counter
	forced    metrics.Counter
	timeouts  metrics.Counter
}

// New builds a coordinator on env.
func New(env *sim.Env, cfg Config) *Coordinator {
	if cfg.Window <= 0 {
		cfg.Window = 5 * time.Millisecond
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 20 * time.Millisecond
	}
	return &Coordinator{env: env, cfg: cfg, holder: -1}
}

// Register adds a member (one replica) to the coordinator. Call order
// is the deterministic grant order; register replicas in placement
// order before the simulation starts.
func (c *Coordinator) Register(name string) *Member {
	m := &Member{c: c, idx: len(c.members), name: name, live: true, urgentAt: -1}
	c.members = append(c.members, m)
	return m
}

// Stats returns the coordinator's cumulative counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Grants:    c.grants.Value(),
		Deferrals: c.deferrals.Value(),
		Forced:    c.forced.Value(),
		Timeouts:  c.timeouts.Value(),
	}
}

// RegisterMetrics adopts the coordinator's counters into r and
// installs a gauge for whether any window is currently open. The
// gauge callback reads plain fields and stays park-free, per the
// GaugeFunc contract.
func (c *Coordinator) RegisterMetrics(r *metrics.Registry, labels ...metrics.Label) {
	if r == nil {
		return
	}
	r.RegisterCounter("coord_window_grants_total", &c.grants, labels...)
	r.RegisterCounter("coord_deferred_erases_total", &c.deferrals, labels...)
	r.RegisterCounter("coord_forced_erases_total", &c.forced, labels...)
	r.RegisterCounter("coord_grant_timeouts_total", &c.timeouts, labels...)
	r.GaugeFunc("coord_window_open", func() float64 {
		if c.holder >= 0 {
			return 1
		}
		return 0
	}, labels...)
}

// tryGrant hands the window to the next waiting live member in
// round-robin order. No-op while a window is held. Park-free: safe
// from scheduled callbacks.
func (c *Coordinator) tryGrant() {
	if c.holder >= 0 || len(c.members) == 0 {
		return
	}
	n := len(c.members)
	for i := 0; i < n; i++ {
		m := c.members[(c.next+i)%n]
		if m.want && m.live {
			c.grantTo(m)
			return
		}
	}
}

// grantTo opens a window for m.
func (c *Coordinator) grantTo(m *Member) {
	c.holder = m.idx
	c.next = (m.idx + 1) % len(c.members)
	m.want = false
	m.openUntil = c.env.Now() + c.cfg.Window
	c.grants.Inc()
	if t := c.env.Tracer(); t != nil {
		m.span = t.Begin(c.env.Now(), 0, "coord/window."+m.name, trace.PhaseCoord)
	}
	if m.grant != nil {
		m.grant.Fire()
		m.grant = nil
	}
	// The window closes at openUntil if its erases have drained by
	// then; otherwise the last release closes it. Capture openUntil so
	// a later window of the same member cannot be closed by this timer.
	at := m.openUntil
	c.env.Schedule(c.cfg.Window, func() {
		if c.holder == m.idx && m.openUntil == at && m.active == 0 {
			c.close(m)
		}
	})
}

// close releases m's window and grants the next waiter.
func (c *Coordinator) close(m *Member) {
	c.holder = -1
	if t := c.env.Tracer(); t != nil && m.span != 0 {
		t.End(c.env.Now(), m.span)
		m.span = 0
	}
	c.tryGrant()
}

// Member is one replica's handle on the coordinator.
type Member struct {
	c    *Coordinator
	idx  int
	name string
	live bool

	want      bool        // a window request is queued
	grant     *sim.Signal // fired when the queued request is granted
	waiters   int         // concurrent AcquireErase calls parked on grant
	urgentAt  time.Duration
	openUntil time.Duration
	active    int // erases in flight under the current window
	forced    int // forced erases in flight (escape hatch)
	span      trace.SpanID
}

// Name returns the member's registration name.
func (m *Member) Name() string { return m.name }

// InWindow reports whether the replica is currently inside an erase
// window — granted or forced. Read routing deprioritizes members for
// which this is true.
func (m *Member) InWindow() bool {
	return (m.c.holder == m.idx) || m.forced > 0
}

// Live reports the liveness the coordinator believes.
func (m *Member) Live() bool { return m.live }

// SetLive updates the member's liveness. A dead member's open window
// is closed (its in-flight erases will fail on the dead engine
// anyway) and its queued request cancelled, so a crashed replica can
// never block its peers' reclaim. Park-free: safe from fault
// injection callbacks in scheduler context.
func (m *Member) SetLive(alive bool) {
	if m.live == alive {
		return
	}
	m.live = alive
	c := m.c
	if alive {
		c.tryGrant()
		return
	}
	if m.want {
		m.want = false
		if m.grant != nil {
			// Wake the waiter; AcquireErase sees the dead member and
			// returns without a window.
			m.grant.Fire()
			m.grant = nil
		}
	}
	if c.holder == m.idx {
		c.close(m)
	}
}

// AcquireErase claims the right to run one background erase. free is
// the caller's pre-erased pool depth (its urgency). The call parks
// until this member holds the window, joins an already-open window of
// this member immediately, or falls through the forced hatch when the
// pool is at the ForceFreeBlocks floor or the request ages past
// MaxWait. It returns a release func (idempotent; call it when the
// erase completes) and whether the hatch fired.
func (m *Member) AcquireErase(p *sim.Proc, free int) (release func(), forced bool) {
	c := m.c
	// Join the member's open window while it accepts new erases.
	if c.holder == m.idx && c.env.Now() < m.openUntil {
		m.active++
		return m.releaseOnce(), false
	}
	// Urgent: reclaim cannot wait for a turn without risking
	// ErrNoSpace on the foreground write path.
	if free >= 0 && free <= c.cfg.ForceFreeBlocks {
		return m.force(), true
	}
	// The member's channels erase concurrently, so several AcquireErase
	// calls can be queued at once; they all share one grant signal and
	// all join the window the moment it opens.
	m.want = true
	m.waiters++
	if m.grant == nil {
		m.grant = sim.NewSignal(c.env)
	}
	grant := m.grant
	c.tryGrant()
	if !grant.Fired() {
		// Deferred: a peer holds the window — or this member's own
		// previous window is still draining (joins are allowed only
		// while the window accepts new erases, keeping its length
		// bounded; a drain-time request queues like everyone else's).
		c.deferrals.Inc()
		p.AwaitUntil(grant, c.env.Now()+c.cfg.MaxWait)
	}
	m.waiters--
	if grant.Fired() && c.holder == m.idx {
		m.active++
		return m.releaseOnce(), false
	}
	if m.waiters == 0 && m.grant == grant {
		// Last waiter on this signal gave up: withdraw the request.
		m.want = false
		m.grant = nil
	}
	if !m.live {
		// Woken by SetLive(false): the node died while waiting. No
		// window — the erase will fail fast on the dead engine.
		return func() {}, false
	}
	if c.env.Now() == m.urgentAt {
		// Woken by PoolLow: the caller's pre-erased pool hit the floor
		// while this request was parked. Forced, but not a timeout.
		return m.force(), true
	}
	// Starvation bound: MaxWait elapsed without a grant.
	c.timeouts.Inc()
	return m.force(), true
}

// PoolLow tells the member its caller's pre-erased pool has drained to
// free blocks. If the pool is at the forced-erase floor while erase
// requests are parked waiting for a window, the waiters are woken
// immediately and fall through the forced hatch: a request's urgency
// is re-evaluated as the pool drains beneath it, not only at call
// time, so deferral can never exhaust the free pool (and push the
// foreground write path onto ungated inline erases). Park-free: safe
// to call from the write path on every pool consumption.
func (m *Member) PoolLow(free int) {
	if free > m.c.cfg.ForceFreeBlocks || m.waiters == 0 || m.grant == nil || m.grant.Fired() {
		return
	}
	m.urgentAt = m.c.env.Now()
	grant := m.grant
	m.want = false
	m.grant = nil
	grant.Fire()
}

// force opens the escape hatch for one erase.
func (m *Member) force() func() {
	c := m.c
	m.forced++
	c.forced.Inc()
	released := false
	t := c.env.Tracer()
	if t == nil {
		return func() {
			if !released {
				released = true
				m.forced--
			}
		}
	}
	span := t.Begin(c.env.Now(), 0, "coord/forced."+m.name, trace.PhaseCoord)
	return func() {
		if released {
			return
		}
		released = true
		m.forced--
		t.End(c.env.Now(), span)
	}
}

// releaseOnce returns the idempotent release for one granted erase.
func (m *Member) releaseOnce() func() {
	c := m.c
	released := false
	return func() {
		if released {
			return
		}
		released = true
		m.active--
		if c.holder == m.idx && m.active == 0 && c.env.Now() >= m.openUntil {
			c.close(m)
		}
	}
}
