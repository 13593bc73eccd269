// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// All timing in the SDF reproduction is virtual: device models advance a
// simulated clock instead of sleeping on the wall clock, so results are
// bit-reproducible for a given seed and immune to host scheduling or
// garbage-collection jitter.
//
// The kernel follows the classic process-interaction style (cf. SimPy):
// a simulation is a set of processes, each running on a pooled coroutine
// carrier, of which exactly one runs at any instant. A process blocks by
// waiting for virtual time to pass (Proc.Wait), for a Signal to fire
// (Proc.Await), or for a Resource or Queue to become available. The
// scheduler resumes processes in strict (time, sequence) order, so event
// ordering is deterministic.
//
// Two structural choices make the hot loop cheap (DESIGN.md "Kernel
// round 2"):
//
//   - The pending-event set is a calendar queue: one FIFO bucket per
//     distinct virtual instant, with the buckets themselves in a small
//     min-heap. Pushes append (seq order is append order), pops read the
//     bucket head, and the heavy same-instant tie load the device models
//     generate costs O(1) per event instead of a heap sift. Bucket
//     backing arrays are recycled through a free list, so steady-state
//     scheduling allocates nothing.
//
//   - Control moves between processes by runtime coroutine switch
//     (iter.Pull): a process body runs on a carrier, a pull-iterator
//     coroutine that outlives it and is reused by later spawns, and a
//     handoff is a direct stack switch — no channel, no scheduler pass,
//     no goroutine ready/park round trip. The goroutine that holds
//     control pops and dispatches events itself; when a process's own
//     resume event is next, it keeps running with no switch at all.
//     All coroutine resumes are trampolined through the driver
//     goroutine (the Run caller), so next/stop are never invoked from
//     inside a coroutine.
package sim

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"time"

	"sdf/internal/trace"
)

// event is a scheduled occurrence in virtual time. Events with equal
// time fire in the order they were scheduled (seq breaks ties).
//
// The two hottest event shapes — resuming a parked process and
// launching a spawned one — are encoded by the proc field instead of a
// closure, so timer fires, resource grants, and process starts cost no
// heap allocation. fn is the general inline-callback form (Schedule);
// it runs in scheduler context and must not block. grant is a batched
// set of same-instant process resumes occupying consecutive sequence
// slots (see tlGrant).
type event struct {
	at    int64 // virtual nanoseconds
	seq   uint64
	proc  *Proc  // non-nil: resume (or start) this process
	fn    func() // proc == nil: run this callback inline
	grant *tlGrant
}

// bucket holds every pending event at one virtual instant. Events are
// appended in scheduling order, and the global sequence counter is
// monotonic, so a bucket's append order IS its (time, seq) dispatch
// order: within a bucket, FIFO replaces the heap's tie-break compare.
type bucket struct {
	at   int64
	head int
	evs  []event
}

// calendarQueue is the pending-event set: an index of instant-keyed
// FIFO buckets plus a 4-ary min-heap of the non-current buckets. cur
// caches the earliest bucket so the two hot paths — push at the
// current minimum instant (wakes, coalesced grants) and pop — touch
// neither the map nor the heap.
//
// Invariants: size > 0 iff cur != nil and cur has unpopped events;
// cur.at is strictly below every heap bucket's instant; every live
// bucket (cur included) is in index.
type calendarQueue struct {
	size  int
	cur   *bucket
	heap  []*bucket
	index map[int64]*bucket
	free  []*bucket
}

func (q *calendarQueue) init() { q.index = make(map[int64]*bucket) }

// minAt returns the earliest pending instant; size must be > 0.
func (q *calendarQueue) minAt() int64 { return q.cur.at }

func (q *calendarQueue) push(ev event) {
	q.size++
	c := q.cur
	if c == nil {
		b := q.newBucket(ev)
		q.cur = b
		q.index[ev.at] = b
		return
	}
	if ev.at == c.at {
		c.evs = append(c.evs, ev)
		return
	}
	if ev.at < c.at {
		// A push below the cached minimum happens when the clock sits
		// behind cur (the instant just drained fully, promoting a later
		// bucket) and dispatch work schedules at now: demote cur back
		// into the heap and open a fresh earliest bucket.
		q.heapPush(c)
		b := q.newBucket(ev)
		q.cur = b
		q.index[ev.at] = b
		return
	}
	if b := q.index[ev.at]; b != nil {
		b.evs = append(b.evs, ev)
		return
	}
	b := q.newBucket(ev)
	q.heapPush(b)
	q.index[ev.at] = b
}

func (q *calendarQueue) pop() event {
	c := q.cur
	ev := c.evs[c.head]
	// Zero the vacated slot so a completed event's closure, process,
	// and grant pointers do not stay reachable through the bucket's
	// recycled backing array.
	c.evs[c.head] = event{}
	c.head++
	q.size--
	if c.head == len(c.evs) {
		delete(q.index, c.at)
		c.evs = c.evs[:0]
		c.head = 0
		q.free = append(q.free, c)
		q.cur = q.heapPop()
	}
	return ev
}

// withdraw cancels the pending event of instant at and sequence seq
// in place: it becomes an event with nothing to run, which keeps its
// slot, so the dispatch order and the event count are those of the
// event firing, and is dropped when popped. The bucket of an instant
// holds its events in seq order, so the lookup is the index map and a
// binary search.
func (q *calendarQueue) withdraw(at int64, seq uint64) {
	b := q.index[at]
	evs := b.evs[b.head:]
	i, _ := slices.BinarySearchFunc(evs, seq, func(ev event, seq uint64) int { return cmp.Compare(ev.seq, seq) })
	evs[i] = event{at: at, seq: seq}
}

// newBucket takes a bucket from the free list (retaining its backing
// array — the event "arena") or allocates one, seeding it with ev.
func (q *calendarQueue) newBucket(ev event) *bucket {
	var b *bucket
	if n := len(q.free); n > 0 {
		b = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		b = &bucket{evs: make([]event, 0, 8)}
	}
	b.at = ev.at
	b.evs = append(b.evs, ev)
	return b
}

// heapPush inserts b into the 4-ary min-heap of non-current buckets.
// Instants are unique across live buckets, so there are no ties.
func (q *calendarQueue) heapPush(b *bucket) {
	q.heap = append(q.heap, b)
	s := q.heap
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if s[i].at >= s[parent].at {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// heapPop removes and returns the earliest non-current bucket, or nil.
func (q *calendarQueue) heapPop() *bucket {
	n := len(q.heap)
	if n == 0 {
		return nil
	}
	top := q.heap[0]
	n--
	q.heap[0] = q.heap[n]
	q.heap[n] = nil
	s := q.heap[:n]
	q.heap = s
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		smallest := i
		for ; c < end; c++ {
			if s[c].at < s[smallest].at {
				smallest = c
			}
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// tlGrant batches process resumes that would otherwise be scheduled as
// back-to-back events at one instant — a Timeline lane completing a
// burst, a Signal releasing all its waiters — into a single queue
// entry. Absorption is only legal while the grant is the most recently
// scheduled thing on the whole environment (its seq still equals the
// global counter) and the instants match: then the batched entries
// provably occupy the consecutive sequence slots they would have had
// as individual events, and in-order delivery of the batch reproduces
// the unbatched dispatch order exactly.
type tlGrant struct {
	at      int64
	seq     uint64
	next    int
	fired   bool
	entries []*Proc
}

// Env is a simulation environment: a virtual clock plus an event queue.
// An Env and everything scheduled on it must be used from a single
// logical thread of control; the kernel guarantees that by running at
// most one process at a time.
type Env struct {
	now   int64
	seq   uint64
	fired uint64 // events dispatched so far
	q     calendarQueue
	// xfer is the process the driver must switch into next: a parking
	// process deposits the successor here before yielding, and the
	// driver loop trampolines into it. nil means re-evaluate the stop
	// conditions and dispatch from the queue.
	xfer *Proc
	// liveHead/liveTail list the started, unfinished processes in start
	// order (Close unwinds them in that order); a finishing process
	// unlinks itself, so the Env holds nothing of a finished one. idle
	// holds the carriers whose body has returned, ready for the next
	// spawn.
	liveHead, liveTail *Proc
	idle               []*carrier
	closed             bool
	fail               *procPanic
	tracer             *trace.Collector
	// limit and stopProc are the active run bounds; activeGrant is a
	// partially delivered batched grant; lastGrant and grantPool back
	// grant absorption and recycling.
	limit       int64
	stopProc    *Proc
	activeGrant *tlGrant
	lastGrant   *tlGrant
	grantPool   []*tlGrant
}

type procPanic struct {
	proc  string
	value any
}

// stopSentinel is panicked inside a blocked process when the
// environment is closed, unwinding the process goroutine cleanly.
type stopSentinel struct{}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	e := &Env{}
	e.q.init()
	return e
}

// Now returns the current virtual time as an offset from simulation start.
func (e *Env) Now() time.Duration { return time.Duration(e.now) }

// Events returns the number of events the scheduler has dispatched —
// the denominator of the events/sec throughput figure the bench
// harness records per experiment. Batched grants count one dispatch
// per wakeup delivered, so the figure stays comparable across kernel
// generations.
func (e *Env) Events() uint64 { return e.fired }

// SetTracer attaches an event collector. A nil tracer (the default)
// keeps every instrumentation site on a single-branch fast path, so
// tracing is strictly pay-for-what-you-use.
func (e *Env) SetTracer(t *trace.Collector) { e.tracer = t }

// Tracer returns the attached collector, or nil. All trace.Collector
// methods are nil-safe, so callers may emit through the returned
// value unconditionally.
func (e *Env) Tracer() *trace.Collector { return e.tracer }

// Schedule runs fn after the given virtual delay. fn executes in
// scheduler context and must not block; use Go for blocking work.
func (e *Env) Schedule(after time.Duration, fn func()) {
	if after < 0 {
		after = 0
	}
	e.scheduleAt(e.now+int64(after), event{fn: fn})
}

// scheduleAt enqueues ev to fire at absolute virtual nanosecond at,
// stamping the tie-break sequence. Together with scheduleWake it is
// the funnel every scheduling path goes through, so (time, sequence)
// ordering is uniform across callbacks, process resumes, and grants.
func (e *Env) scheduleAt(at int64, ev event) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev.at, ev.seq = at, e.seq
	e.q.push(ev)
}

// scheduleWake enqueues a resume of p at absolute instant at,
// coalescing it into the previous grant when nothing else has been
// scheduled since and the instant matches (see tlGrant for why that
// preserves order).
func (e *Env) scheduleWake(at int64, p *Proc) {
	if at < e.now {
		at = e.now
	}
	if g := e.lastGrant; g != nil && !g.fired && g.at == at && g.seq == e.seq {
		g.entries = append(g.entries, p)
		return
	}
	var g *tlGrant
	if n := len(e.grantPool); n > 0 {
		g = e.grantPool[n-1]
		e.grantPool[n-1] = nil
		e.grantPool = e.grantPool[:n-1]
		g.entries = g.entries[:0]
		g.fired = false
		g.next = 0
	} else {
		g = &tlGrant{entries: make([]*Proc, 0, 4)}
	}
	g.entries = append(g.entries, p)
	e.seq++
	g.at, g.seq = at, e.seq
	e.q.push(event{at: at, seq: e.seq, grant: g})
	e.lastGrant = g
}

// runEvents dispatches events while the caller holds control. self is
// the process currently running (nil when the driver loop dispatches).
// It returns the process control must transfer to: self (the caller's
// own resume came up — keep running, no switch), another process
// (deposit it in e.xfer and yield to the driver, which switches in),
// or nil (yield to the driver to re-evaluate its stop conditions).
func (e *Env) runEvents(self *Proc) *Proc {
	for {
		if e.fail != nil || e.closed {
			return nil
		}
		if sp := e.stopProc; sp != nil && sp.Done() {
			return nil
		}
		// A partially delivered grant resumes before any queue pop: its
		// entries hold the sequence slots directly after the popped
		// grant event.
		if g := e.activeGrant; g != nil {
			p := g.entries[g.next]
			g.entries[g.next] = nil
			g.next++
			if g.next == len(g.entries) {
				e.activeGrant = nil
				e.grantPool = append(e.grantPool, g)
			}
			if !p.Done() {
				return p
			}
			continue
		}
		if e.q.size == 0 {
			return nil
		}
		if e.limit >= 0 && e.q.minAt() > e.limit {
			return nil
		}
		ev := e.q.pop()
		e.now = ev.at
		if g := ev.grant; g != nil {
			e.fired += uint64(len(g.entries))
			g.fired = true
			g.next = 0
			e.activeGrant = g
			continue
		}
		e.fired++
		if p := ev.proc; p != nil {
			if p.fn != nil {
				e.spawn(p)
				return p
			}
			if p.Done() {
				continue
			}
			return p
		}
		if ev.fn != nil { // nil: a resume event AwaitUntil withdrew
			ev.fn()
		}
	}
}

// drive is the driver loop body of Run/RunUntil/RunUntilDone: the
// coroutine trampoline. Every process yield lands here; the loop
// switches into the deposited successor (if any), otherwise
// re-evaluates the stop conditions and dispatches from the queue.
func (e *Env) drive() {
	for {
		if p := e.xfer; p != nil {
			e.xfer = nil
			p.c.resumeFn()
			continue
		}
		if f := e.fail; f != nil {
			panic(fmt.Sprintf("sim: process %q panicked: %v", f.proc, f.value))
		}
		if sp := e.stopProc; sp != nil && sp.Done() {
			return
		}
		if e.activeGrant == nil {
			if e.q.size == 0 {
				return
			}
			if e.limit >= 0 && e.q.minAt() > e.limit {
				return
			}
		}
		if next := e.runEvents(nil); next != nil {
			next.c.resumeFn()
		}
	}
}

// Proc is the handle of a simulation process: its identity, its pending
// body, and its completion state. The coroutine that runs the body is a
// carrier, borrowed from the Env for the body's duration only, so the
// handle stays valid (Done, Join, DoneSignal) long after its carrier
// has moved on to other processes. Blocking methods on Proc may only be
// called from inside that process.
type Proc struct {
	env  *Env
	name string
	fn   func(*Proc) // body, pending until its carrier switches in
	c    *carrier    // running the body; nil before start and after finish
	span trace.SpanID
	// doneSig fires when the body returns. It lives in the handle so a
	// spawn plus a Join allocates the Proc and nothing else.
	doneSig Signal
	// prev/next link the process into Env.liveHead while it runs.
	prev, next *Proc
}

// carrier is the expensive half of a process: an iter.Pull coroutine
// with its grown stack and switch closures. It runs one body at a time
// and between bodies waits on Env.idle. resumeFn/stopFn switch into the
// coroutine and are invoked only from the driver goroutine; yieldFn
// switches back out and is invoked only from inside the coroutine.
type carrier struct {
	env      *Env
	proc     *Proc // the process being run; nil while idle
	resumeFn func() (struct{}, bool)
	stopFn   func()
	yieldFn  func(struct{}) bool
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment this process runs in.
func (p *Proc) Env() *Env { return p.env }

// SetSpan records the trace span the process is currently working
// under, so deeper layers can parent their spans to it. Spawned
// worker processes do not inherit the spawner's span; instrumented
// code propagates it explicitly.
func (p *Proc) SetSpan(s trace.SpanID) { p.span = s }

// Span returns the process's current trace span (0 if none).
func (p *Proc) Span() trace.SpanID { return p.span }

// Go spawns a new process. The process starts at the current virtual
// time (after already-scheduled events at that time). Go may be called
// before Run or from inside another process. It panics on a closed Env,
// where the start event could never fire.
func (e *Env) Go(name string, fn func(*Proc)) *Proc { return e.Start(new(Proc), name, fn) }

// Start is Go on caller-owned storage: it spawns the process on p and
// returns p. A layer that spawns a helper per request embeds the Proc
// in a pooled request record and passes a method value bound once, so
// the spawn allocates nothing. p may be a zero Proc or one whose
// previous body has returned (Done); Start panics while p is still
// pending or running, because its handle state would be overwritten
// under the joiners' feet.
func (e *Env) Start(p *Proc, name string, fn func(*Proc)) *Proc {
	if e.closed {
		panic("sim: Go on closed Env")
	}
	if p.env != nil && !p.Done() {
		panic(fmt.Sprintf("sim: Start on live process %q", p.name))
	}
	*p = Proc{env: e, name: name, fn: fn}
	p.doneSig.env = e
	e.scheduleAt(e.now, event{proc: p})
	return p
}

// spawn binds p to a carrier, an idle one when there is one; control
// then transfers to the carrier like any other resume, and the body
// starts on that switch. The dispatch chain between spawn and first
// resume is unbroken (the driver trampolines the deposited transfer
// before checking any stop condition), so a started process always
// enters its body.
func (e *Env) spawn(p *Proc) {
	if e.tracer.Full() {
		e.tracer.Emit(e.Now(), trace.KindProcSpawn, 0, 0, p.name, "", 0)
	}
	var c *carrier
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c = &carrier{env: e}
		c.resumeFn, c.stopFn = iter.Pull(c.loop)
	}
	c.proc, p.c = p, c
	p.prev = e.liveTail
	if p.prev != nil {
		p.prev.next = p
	} else {
		e.liveHead = p
	}
	e.liveTail = p
}

// loop is the body of a carrier coroutine: run the process it was bound
// to, then wait on the idle list for the next one. The idle yield
// leaves Env.xfer nil, so the driver re-evaluates its stop conditions
// and continues dispatch exactly as it does when a coroutine returns.
// A body that panicked, or was unwound by Close, ends the coroutine
// instead: its stack is not trusted with another process.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yieldFn = yield
	e := c.env
	for c.run() {
		e.idle = append(e.idle, c)
		if !yield(struct{}{}) {
			return // Close is draining the idle list
		}
	}
}

// run executes the bound process to completion and reports whether the
// carrier may take another.
func (c *carrier) run() (reusable bool) {
	p := c.proc
	fn := p.fn
	p.fn = nil
	defer func() {
		r := recover()
		reusable = r == nil
		c.proc = nil
		p.exit(r)
	}()
	fn(p)
	return
}

// exit completes a process as its body unwinds with recovered value r
// (nil for a normal return): it records a panic, releases the carrier
// and the Env's reference, and fires the done signal.
func (p *Proc) exit(r any) {
	e := p.env
	if _, stopped := r.(stopSentinel); r != nil && !stopped && e.fail == nil {
		e.fail = &procPanic{proc: p.name, value: r}
	}
	p.c = nil
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.liveHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		e.liveTail = p.prev
	}
	p.prev, p.next = nil, nil
	p.doneSig.Fire()
}

// park blocks the current process until another component wakes it via
// env.wake (or a scheduled resume event fires). It is the single
// low-level blocking primitive; all public blocking operations are
// built on it. The parking process keeps dispatching events until
// control must move: if its own resume is next, it never switches.
// Otherwise it deposits the successor for the driver trampoline and
// yields — one coroutine switch out, one back in on resume.
func (p *Proc) park() {
	e := p.env
	if e.tracer.Full() {
		e.tracer.Emit(e.Now(), trace.KindProcPark, 0, 0, p.name, "", 0)
	}
	if next := e.runEvents(p); next != p {
		e.xfer = next
		if !p.c.yieldFn(struct{}{}) || e.closed {
			// stopFn was called: Close is draining this coroutine.
			panic(stopSentinel{})
		}
	}
	if e.tracer.Full() {
		e.tracer.Emit(e.Now(), trace.KindProcResume, 0, 0, p.name, "", 0)
	}
}

// wake schedules p to resume at the current virtual time. It must only
// be called for a process that is parked or about to park (the handoff
// is mediated by the event queue, so wake-before-park is safe as long
// as both happen before the scheduler regains control). Consecutive
// wakes at one instant coalesce into a single batched grant.
func (e *Env) wake(p *Proc) {
	e.scheduleWake(e.now, p)
}

// Wait advances the process by d of virtual time.
func (p *Proc) Wait(d time.Duration) {
	e := p.env
	if d < 0 {
		d = 0
	}
	e.scheduleAt(e.now+int64(d), event{proc: p})
	p.park()
}

// WaitUntil blocks the process until the given virtual instant. It
// returns immediately when the instant is not in the future, so
// callers can pass completion times from reservation APIs
// (Link.Reserve, Timeline.Reserve) without checking the clock first.
func (p *Proc) WaitUntil(at time.Duration) {
	e := p.env
	if int64(at) <= e.now {
		return
	}
	e.scheduleAt(int64(at), event{proc: p})
	p.park()
}

// AwaitUntil blocks the process until s fires or the instant at,
// whichever comes first, and reports whether s has fired. When the
// instant comes first it is WaitUntil to the event — one resume event,
// scheduled now — so a caller can give a computed completion time an
// early way out (a power cut) without moving anything in the schedule
// while that way is not taken. When s fires first the resume event is
// withdrawn in place (calendarQueue.withdraw): it keeps its slot, and
// the kernel pops and drops it unfired when its instant comes.
func (p *Proc) AwaitUntil(s *Signal, at time.Duration) bool {
	e := p.env
	if s.fired || int64(at) <= e.now {
		return s.fired
	}
	e.scheduleAt(int64(at), event{proc: p})
	timer := e.seq
	s.enroll(p)
	p.park()
	switch {
	case e.now < int64(at): // s fired first
		e.q.withdraw(int64(at), timer)
	case s.fired:
		// Both came at this instant. The resume event is the older of the
		// two, so it is what woke p; Fire's wake is queued behind it and
		// this park takes it.
		p.park()
	default:
		s.forget(p)
	}
	return s.fired
}

// Done reports whether the process has finished.
func (p *Proc) Done() bool { return p.doneSig.fired }

// DoneSignal returns a Signal that fires when the process finishes. The
// same signal is returned on every call.
func (p *Proc) DoneSignal() *Signal { return &p.doneSig }

// Join blocks until the other process finishes.
func (p *Proc) Join(other *Proc) { p.Await(&other.doneSig) }

// Run processes events until the queue is empty. It panics with the
// original value if any process panicked.
func (e *Env) Run() { e.run(-1) }

// RunUntil processes events up to and including virtual time limit.
// Later events remain queued; the clock is left at limit.
func (e *Env) RunUntil(limit time.Duration) { e.run(int64(limit)) }

// RunUntilDone processes events until proc finishes (or the event
// queue empties). Use it to drive a finite workload in the presence of
// perpetual background processes (garbage collectors, wear levelers)
// whose timer events would keep Run from ever returning.
func (e *Env) RunUntilDone(proc *Proc) {
	if e.closed {
		panic("sim: Run on closed Env")
	}
	e.limit, e.stopProc = -1, proc
	e.drive()
	e.stopProc = nil
}

func (e *Env) run(limit int64) {
	if e.closed {
		panic("sim: Run on closed Env")
	}
	e.limit, e.stopProc = limit, nil
	e.drive()
	if limit >= 0 && limit > e.now {
		e.now = limit
	}
}

// Close terminates all blocked processes, in start order, unwinding
// their coroutines, then ends the idle carriers: afterwards no
// coroutine of this Env exists. After Close the environment must not be
// used. Close is idempotent. It must be called from outside Run (not
// from a process).
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for p := e.liveHead; p != nil; {
		next := p.next
		// stopFn switches in with yield returning false; park panics the
		// stop sentinel and the coroutine unwinds through exit (which
		// unlinks p) and ends before control returns here.
		p.c.stopFn()
		p = next
	}
	for _, c := range e.idle {
		c.stopFn()
	}
	e.idle = nil
}

// Signal is a one-shot broadcast event: processes Await it, and a later
// Fire releases all of them. Awaiting an already-fired signal returns
// immediately.
type Signal struct {
	env   *Env
	fired bool
	// first is the earliest waiter, held inline so the common
	// one-waiter signal (a Join) needs no slice; waiters are the later
	// ones in arrival order, non-empty only while first is set.
	first   *Proc
	waiters []*Proc
}

// NewSignal returns an unfired signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Fire triggers the signal, releasing current and future waiters.
// Firing twice is a no-op. A burst of waiters coalesces into one
// batched grant.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if s.first == nil {
		return
	}
	s.env.wake(s.first)
	for _, w := range s.waiters {
		s.env.wake(w)
	}
	s.first, s.waiters = nil, nil
}

// Fired reports whether the signal has been triggered.
func (s *Signal) Fired() bool { return s.fired }

// forget removes p from the waiters (AwaitUntil's instant came first).
func (s *Signal) forget(p *Proc) {
	if s.first != p {
		for i, w := range s.waiters {
			if w == p {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				break
			}
		}
		return
	}
	s.first = nil
	if len(s.waiters) > 0 {
		s.first, s.waiters = s.waiters[0], s.waiters[1:]
	}
}

// Await blocks the process until the signal fires.
func (p *Proc) Await(s *Signal) {
	if s.fired {
		return
	}
	s.enroll(p)
	p.park()
}

// enroll adds p to the processes Fire will wake.
func (s *Signal) enroll(p *Proc) {
	if s.first == nil {
		s.first = p
	} else {
		s.waiters = append(s.waiters, p)
	}
}

// Resource is a counting semaphore. It models a device that can serve
// a bounded number of operations concurrently (a flash plane, a
// controller pipeline slot, a NIC DMA engine). Waiters are admitted
// lowest priority value first and FIFO within one priority; Acquire
// queues at priority 0, so a resource nobody acquires with
// AcquirePrio is plain FIFO. It is non-preemptive: holders run to
// completion. The SDF channel engine uses priorities to let on-demand
// reads overtake queued writes and erases — the request-scheduling
// direction the paper leaves as future work (§2.4, §5).
type Resource struct {
	env     *Env
	name    string
	cap     int
	inUse   int
	waiters []prioWaiter
}

type prioWaiter struct {
	proc *Proc
	prio int
}

// NewResource returns a resource with the given concurrency capacity.
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: env, cap: capacity}
}

// SetName labels the resource in trace output.
func (r *Resource) SetName(name string) { r.name = name }

// Acquire obtains one unit at priority 0, blocking while the resource
// is saturated.
func (r *Resource) Acquire(p *Proc) { r.AcquirePrio(p, 0) }

// AcquirePrio obtains one unit at the given priority (lower value is
// served first), blocking while the resource is saturated.
func (r *Resource) AcquirePrio(p *Proc, prio int) {
	if r.env.tracer.Full() {
		r.env.tracer.Emit(r.env.Now(), trace.KindAcquire, 0, 0, r.name, "", int64(len(r.waiters)))
	}
	if r.inUse < r.cap {
		r.inUse++
		return
	}
	// Queue behind every waiter of the same or better priority.
	i := len(r.waiters)
	for i > 0 && r.waiters[i-1].prio > prio {
		i--
	}
	r.waiters = append(r.waiters, prioWaiter{})
	copy(r.waiters[i+1:], r.waiters[i:])
	r.waiters[i] = prioWaiter{proc: p, prio: prio}
	p.park()
}

// TryAcquire obtains a unit without blocking; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit. If a process is waiting, the unit transfers
// directly to the head of the queue.
func (r *Resource) Release() {
	if r.env.tracer.Full() {
		r.env.tracer.Emit(r.env.Now(), trace.KindRelease, 0, 0, r.name, "", int64(len(r.waiters)))
	}
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.env.wake(w.proc)
		return
	}
	if r.inUse == 0 {
		panic("sim: Release of idle resource")
	}
	r.inUse--
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Idle reports whether no units are held and nobody is waiting.
func (r *Resource) Idle() bool { return r.inUse == 0 && len(r.waiters) == 0 }

// Waiting returns the queue length.
func (r *Resource) Waiting() int { return len(r.waiters) }

// Use runs fn while holding one unit of the resource.
func (r *Resource) Use(p *Proc, fn func()) {
	r.Acquire(p)
	defer r.Release()
	fn()
}

// Queue is an unbounded FIFO channel between processes. Put never
// blocks; Get blocks while the queue is empty.
type Queue[T any] struct {
	env     *Env
	items   []T
	getters []*Proc
}

// NewQueue returns an empty queue bound to env.
func NewQueue[T any](env *Env) *Queue[T] { return &Queue[T]{env: env} }

// Put appends an item and wakes one waiting getter, if any.
func (q *Queue[T]) Put(x T) {
	q.items = append(q.items, x)
	if len(q.getters) > 0 {
		w := q.getters[0]
		copy(q.getters, q.getters[1:])
		q.getters = q.getters[:len(q.getters)-1]
		q.env.wake(w)
	}
}

// Get removes and returns the head item, blocking while the queue is
// empty.
func (q *Queue[T]) Get(p *Proc) T {
	for len(q.items) == 0 {
		q.getters = append(q.getters, p)
		p.park()
	}
	x := q.items[0]
	copy(q.items, q.items[1:])
	var zero T
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
	// If items remain and other getters wait, propagate the wakeup so a
	// burst of Puts cannot strand a parked getter.
	if len(q.items) > 0 && len(q.getters) > 0 {
		w := q.getters[0]
		copy(q.getters, q.getters[1:])
		q.getters = q.getters[:len(q.getters)-1]
		q.env.wake(w)
	}
	return x
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }
