package sim

import (
	"time"

	"sdf/internal/trace"
)

// ByteTime returns the virtual time needed to move n bytes at rate
// bytesPerSec.
func ByteTime(n int, bytesPerSec float64) time.Duration {
	if n <= 0 || bytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bytesPerSec * float64(time.Second))
}

// Link is a store-and-forward bandwidth resource: transfers are
// serialized FIFO and each occupies the link for overhead + bytes/rate.
// It models command/data buses where one transaction owns the wires at
// a time (a NAND channel bus, a SATA link).
type Link struct {
	env      *Env
	name     string
	tl       *Timeline
	rate     float64 // bytes per second
	factor   float64 // degradation multiplier (1 = healthy)
	overhead time.Duration
	moved    int64
	// holdN and hold memoize Hold for the last transfer size: a
	// channel bus moves one page size nearly always.
	holdN int
	hold  time.Duration
}

// NewLink returns a serialized link with the given data rate in bytes
// per second and a fixed per-transfer overhead (command/address cycles,
// protocol framing).
func NewLink(env *Env, bytesPerSec float64, overhead time.Duration) *Link {
	return &Link{env: env, tl: NewTimeline(env, 1), rate: bytesPerSec, factor: 1, overhead: overhead, holdN: -1}
}

// SetName labels the link in trace output.
func (l *Link) SetName(name string) { l.name = name }

// SetRateFactor scales the link's effective data rate by f (0 < f <= 1
// degrades, 1 restores). Fault injection uses it to model a slow bus
// or a flapping interconnect; transfers admitted after the change see
// the new rate, transfers already admitted (on the wire or queued, the
// wire-ownership model does not re-time a queued command) keep theirs.
func (l *Link) SetRateFactor(f float64) {
	if f <= 0 {
		panic("sim: link rate factor must be positive")
	}
	l.factor = f
	l.holdN = -1
}

// RateFactor returns the current degradation multiplier.
func (l *Link) RateFactor() float64 { return l.factor }

// Hold returns the wire-occupancy time of an n-byte transfer at the
// current effective rate.
func (l *Link) Hold(n int) time.Duration {
	if n != l.holdN {
		l.holdN, l.hold = n, l.overhead+ByteTime(n, l.rate*l.factor)
	}
	return l.hold
}

// Transfer moves n bytes across the link, blocking for queueing plus
// transmission time.
func (l *Link) Transfer(p *Proc, n int) {
	full := l.env.tracer.Full()
	if full {
		l.env.tracer.Emit(l.env.Now(), trace.KindXferBegin, 0, 0, l.name, "", int64(n))
	}
	l.tl.Occupy(p, l.Hold(n))
	l.moved += int64(n)
	if full {
		l.env.tracer.Emit(l.env.Now(), trace.KindXferEnd, 0, 0, l.name, "", int64(n))
	}
}

// Reserve claims the link's next FIFO slot for an n-byte transfer
// without blocking and returns the slot's wire-occupancy bounds.
// The transfer is committed: callers that care about completion wait
// with Proc.WaitUntil(end). This is the zero-park form device models
// use on their hottest paths.
func (l *Link) Reserve(n int) (start, end time.Duration) {
	return l.ReserveAt(l.env.Now(), n)
}

// ReserveAt is Reserve for a transfer that reaches the link at the
// future instant at (see Timeline.ReserveAt). The hold uses the rate
// in force now: a schedule is fixed when it is admitted.
func (l *Link) ReserveAt(at time.Duration, n int) (start, end time.Duration) {
	l.moved += int64(n)
	return l.tl.ReserveAt(at, l.Hold(n))
}

// Free returns the instant the link's wires next go quiet. A caller
// that owns the link for a command (a channel engine holding its
// mutex) lays a run of transfers out from it with Hold, each starting
// at max(ready, end of the previous one), and records them with one
// Commit.
func (l *Link) Free() time.Duration { return l.tl.Free() }

// Commit records transfers of bytes in all laid out from Free, the
// last of them ending at end.
func (l *Link) Commit(end time.Duration, bytes int) {
	l.moved += int64(bytes)
	l.tl.Commit(end)
}

// Rate returns the link data rate in bytes per second.
func (l *Link) Rate() float64 { return l.rate }

// Moved returns the total bytes transferred so far.
func (l *Link) Moved() int64 { return l.moved }

// Busy reports whether a transfer is in progress or queued.
func (l *Link) Busy() bool { return l.tl.Busy() }

// SharedLink is a processor-sharing bandwidth resource: all in-flight
// transfers progress simultaneously, each receiving an equal share of
// the link rate. It models DMA engines that interleave transactions at
// fine granularity (PCIe, 10 GbE).
type SharedLink struct {
	env    *Env
	name   string
	rate   float64 // bytes per second
	factor float64 // degradation multiplier (1 = healthy)
	active []*Xfer
	last   int64  // virtual time of last progress update
	gen    uint64 // invalidates stale completion events
	moved  int64
	// Awaited xfers and fired ticks are reused, so a transfer in steady
	// state allocates nothing.
	freeXfers []*Xfer
	freeTicks []*linkTick
}

// Xfer is one transfer on a SharedLink, from Start until Await returns:
// the bytes it still has to move, and the process parked in Await until
// they reach zero (nil while nobody waits).
type Xfer struct {
	n         int
	remaining float64
	drained   bool
	proc      *Proc
}

// linkTick is one scheduled progress event. fire is its method value,
// bound once, so rescheduling passes a ready func to Env.Schedule
// instead of building a closure over gen.
type linkTick struct {
	l    *SharedLink
	gen  uint64
	fire func()
}

func (t *linkTick) run() {
	l, current := t.l, t.gen == t.l.gen
	l.freeTicks = append(l.freeTicks, t)
	if current {
		l.complete()
	}
}

// NewSharedLink returns a fair-share link with the given aggregate data
// rate in bytes per second.
func NewSharedLink(env *Env, bytesPerSec float64) *SharedLink {
	if bytesPerSec <= 0 {
		panic("sim: shared link rate must be positive")
	}
	return &SharedLink{env: env, rate: bytesPerSec, factor: 1}
}

// SetRateFactor scales the link's effective aggregate rate by f
// (0 < f <= 1 degrades, 1 restores). In-flight transfers keep the
// progress they have made and continue at the new rate — the model of
// a NIC or PCIe lane dropping to a degraded speed mid-stream.
func (l *SharedLink) SetRateFactor(f float64) {
	if f <= 0 {
		panic("sim: shared link rate factor must be positive")
	}
	l.advance()
	l.factor = f
	l.reschedule()
}

// RateFactor returns the current degradation multiplier.
func (l *SharedLink) RateFactor() float64 { return l.factor }

// Rate returns the aggregate link rate in bytes per second.
func (l *SharedLink) Rate() float64 { return l.rate }

// Moved returns the total bytes transferred so far.
func (l *SharedLink) Moved() int64 { return l.moved }

// SetName labels the link in trace output.
func (l *SharedLink) SetName(name string) { l.name = name }

// Transfer moves n bytes across the link, blocking until completion.
// With k concurrent transfers each progresses at rate/k.
func (l *SharedLink) Transfer(p *Proc, n int) { l.Await(p, l.Start(n)) }

// Start puts an n-byte transfer on the link without blocking and
// returns its handle, which exactly one Await must collect; it returns
// nil for n <= 0. A process that has other work to do while the bytes
// move — an rpcnet sub-request streaming its response through the
// client NIC — starts the transfer, does the work, then awaits it, and
// needs no helper process to carry it.
func (l *SharedLink) Start(n int) *Xfer {
	if n <= 0 {
		return nil
	}
	if l.env.tracer.Full() {
		l.env.tracer.Emit(l.env.Now(), trace.KindXferBegin, 0, 0, l.name, "", int64(n))
	}
	l.advance()
	var x *Xfer
	if k := len(l.freeXfers); k > 0 {
		x = l.freeXfers[k-1]
		l.freeXfers = l.freeXfers[:k-1]
	} else {
		x = new(Xfer)
	}
	*x = Xfer{n: n, remaining: float64(n)}
	l.active = append(l.active, x)
	l.reschedule()
	return x
}

// Await blocks p until x has drained and then retires it; x must not
// be used afterwards. It returns at once, with no event, for a
// transfer that drained already (or a nil one).
func (l *SharedLink) Await(p *Proc, x *Xfer) {
	if x == nil {
		return
	}
	if !x.drained {
		x.proc = p
		p.park() // until complete wakes x.proc
	}
	l.moved += int64(x.n)
	if l.env.tracer.Full() {
		l.env.tracer.Emit(l.env.Now(), trace.KindXferEnd, 0, 0, l.name, "", int64(x.n))
	}
	x.proc = nil
	l.freeXfers = append(l.freeXfers, x)
}

// advance applies progress for the time elapsed since the last update.
func (l *SharedLink) advance() {
	now := int64(l.env.Now())
	if now == l.last {
		return
	}
	elapsed := float64(now-l.last) / float64(time.Second)
	l.last = now
	if len(l.active) == 0 {
		return
	}
	each := elapsed * l.rate * l.factor / float64(len(l.active))
	for _, x := range l.active {
		x.remaining -= each
		if x.remaining < 0 {
			x.remaining = 0
		}
	}
}

// reschedule computes the next completion instant and schedules a
// progress event for it, invalidating any previously scheduled one.
func (l *SharedLink) reschedule() {
	l.gen++
	if len(l.active) == 0 {
		return
	}
	minRem := l.active[0].remaining
	for _, x := range l.active[1:] {
		if x.remaining < minRem {
			minRem = x.remaining
		}
	}
	share := l.rate * l.factor / float64(len(l.active))
	eta := time.Duration(minRem / share * float64(time.Second))
	// Round up one nanosecond so the completion check sees zero
	// remaining despite floating-point truncation.
	eta++
	var t *linkTick
	if k := len(l.freeTicks); k > 0 {
		t = l.freeTicks[k-1]
		l.freeTicks = l.freeTicks[:k-1]
	} else {
		t = &linkTick{l: l}
		t.fire = t.run
	}
	t.gen = l.gen
	l.env.Schedule(eta, t.fire)
}

// complete finishes all transfers that have drained, wakes the
// processes already waiting on them, and reschedules.
func (l *SharedLink) complete() {
	l.advance()
	kept := l.active[:0]
	for _, x := range l.active {
		// One virtual nanosecond of budget is less than one byte at any
		// realistic rate, so treat sub-byte residue as done.
		if x.remaining < 1 {
			x.drained = true
			if x.proc != nil {
				l.env.wake(x.proc)
			}
		} else {
			kept = append(kept, x)
		}
	}
	l.active = kept
	l.reschedule()
}
