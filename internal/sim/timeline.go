package sim

import "time"

// Timeline is the kernel's timed-occupancy fast path: a FIFO resource
// whose every hold is a pure virtual-time delay known at admission.
// Because the whole occupancy schedule is computable the moment a
// request arrives, the kernel assigns each requester its busy interval
// immediately and delivers the completion inline in the scheduler loop
// — one park for a blocking caller instead of the up-to-two of
// Acquire+Wait, zero parks and zero closures for the reservation form.
//
// It replaces the Resource.Acquire / Proc.Wait / Resource.Release
// pattern wherever the hold never depends on state discovered while
// holding: NAND array operations, serialized bus transfers, host-stack
// CPU charges. Semantics match a FIFO Resource of the same capacity
// whose holders sleep for their hold and release: with k lanes, a
// request admitted at time T starts at max(T, earliest lane-free
// instant) and completes at start+hold. Rate or duration changes apply
// to holds admitted after the change; already-admitted slots keep
// their interval (a Resource queue behaves the same for in-service
// holds, and no model re-times a queued command).
type Timeline struct {
	env   *Env
	lanes []int64 // virtual instant each lane next frees
}

// NewTimeline returns a timeline with the given concurrency capacity.
func NewTimeline(env *Env, capacity int) *Timeline {
	if capacity < 1 {
		panic("sim: timeline capacity must be >= 1")
	}
	return &Timeline{env: env, lanes: make([]int64, capacity)}
}

// claim assigns the next FIFO slot of length hold to a request that
// arrives at instant at (clamped to now) and returns its bounds. The
// earliest-free lane wins; ties break toward the lowest lane index,
// keeping assignment deterministic.
func (t *Timeline) claim(at int64, hold time.Duration) (start, end int64) {
	if hold < 0 {
		hold = 0
	}
	best := 0
	for i := 1; i < len(t.lanes); i++ {
		if t.lanes[i] < t.lanes[best] {
			best = i
		}
	}
	start = t.lanes[best]
	if now := t.env.now; at < now {
		at = now
	}
	if start < at {
		start = at
	}
	end = start + int64(hold)
	t.lanes[best] = end
	return start, end
}

// Occupy blocks p for queueing plus hold — the blocking fast-path
// form. The process parks exactly once, resumed at the end of its
// slot; back-to-back completions at one instant coalesce into a single
// batched grant (see tlGrant), one scheduler operation for the burst.
func (t *Timeline) Occupy(p *Proc, hold time.Duration) {
	_, end := t.claim(t.env.now, hold)
	t.env.scheduleWake(end, p)
	p.park()
}

// Reserve assigns the next FIFO slot without blocking and returns its
// bounds as virtual instants. Callers observe completion with
// Proc.WaitUntil(end) — or not at all, for fire-and-forget occupancy.
func (t *Timeline) Reserve(hold time.Duration) (start, end time.Duration) {
	return t.ReserveAt(t.env.Now(), hold)
}

// ReserveAt is Reserve for a request that arrives at the future instant
// at: the slot starts at max(at, earliest lane-free instant). A caller
// that owns the timeline for the length of a command (a channel engine
// holding its mutex) uses it to lay the command's whole occupancy
// schedule out at admission and park once for the result, instead of
// parking at every step to learn the next arrival instant. Slots are
// still handed out in call order, so the caller must reserve in the
// order the arrivals would have happened.
func (t *Timeline) ReserveAt(at, hold time.Duration) (start, end time.Duration) {
	s, e := t.claim(int64(at), hold)
	return time.Duration(s), time.Duration(e)
}

// Free returns the instant a one-lane timeline's lane next frees: a
// request arriving at or after it starts on arrival. With Commit it
// lets a caller that owns the timeline for a command lay a run of slots
// out in its own arithmetic — slot i starts at max(arrival, end of
// slot i-1) — and record the run once, instead of one ReserveAt per
// slot.
func (t *Timeline) Free() time.Duration {
	t.oneLane()
	return time.Duration(t.lanes[0])
}

// Commit marks a one-lane timeline busy until end, the end of the last
// slot of a run laid out from Free (Free itself for an empty run).
func (t *Timeline) Commit(end time.Duration) {
	t.oneLane()
	t.lanes[0] = int64(end)
}

func (t *Timeline) oneLane() {
	if len(t.lanes) != 1 {
		panic("sim: Free and Commit need a one-lane timeline")
	}
}
