package sim

import (
	"runtime"
	"testing"
	"time"

	"sdf/internal/trace"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestWaitAdvancesClock(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var at time.Duration
	e.Go("w", func(p *Proc) {
		p.Wait(5 * time.Millisecond)
		at = e.Now()
	})
	e.Run()
	if at != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", at)
	}
}

func TestSequentialWaits(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var at time.Duration
	e.Go("w", func(p *Proc) {
		p.Wait(time.Millisecond)
		p.Wait(2 * time.Millisecond)
		p.Wait(3 * time.Millisecond)
		at = e.Now()
	})
	e.Run()
	if at != 6*time.Millisecond {
		t.Fatalf("woke at %v, want 6ms", at)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		defer e.Close()
		var order []string
		for _, n := range []string{"a", "b", "c"} {
			name := n
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Wait(time.Millisecond)
					order = append(order, name)
				}
			})
		}
		e.Run()
		return order
	}
	first := run()
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 5; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("nondeterministic order: %v vs %v", got, first)
			}
		}
	}
}

func TestZeroDelayEventsFIFO(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(0, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	ticks := 0
	e.Go("t", func(p *Proc) {
		for {
			p.Wait(time.Second)
			ticks++
		}
	})
	e.RunUntil(5500 * time.Millisecond)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if e.Now() != 5500*time.Millisecond {
		t.Fatalf("Now() = %v, want 5.5s", e.Now())
	}
}

func TestRunUntilThenResume(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	ticks := 0
	e.Go("t", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Wait(time.Second)
			ticks++
		}
	})
	e.RunUntil(3 * time.Second)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	e.Run()
	if ticks != 10 {
		t.Fatalf("ticks = %d after full run, want 10", ticks)
	}
}

func TestSignalReleasesAllWaiters(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	s := NewSignal(e)
	woke := 0
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) {
			p.Await(s)
			woke++
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Wait(time.Millisecond)
		s.Fire()
	})
	e.Run()
	if woke != 4 {
		t.Fatalf("woke = %d, want 4", woke)
	}
}

func TestAwaitFiredSignalReturnsImmediately(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	s := NewSignal(e)
	s.Fire()
	var at time.Duration
	e.Go("w", func(p *Proc) {
		p.Await(s)
		at = e.Now()
	})
	e.Run()
	if at != 0 {
		t.Fatalf("woke at %v, want 0", at)
	}
}

// TestAwaitUntil covers the three orders a signal and a deadline can
// come in. After each, the process sleeps past every instant involved:
// a wake-up left over from the wait (the unfired timer, the signal's
// grant) would cut that sleep short.
func TestAwaitUntil(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name   string
		fireAt time.Duration // < 0: never
		early  bool          // the Fire is scheduled before the wait's timer, so it precedes it at an equal instant
		fired  bool
		wakeAt time.Duration
	}{
		{"deadline first", -1, false, false, 5 * ms},
		{"signal first", 2 * ms, false, true, 2 * ms},
		{"same instant, signal dispatched first", 5 * ms, true, true, 5 * ms},
		{"same instant, deadline dispatched first", 5 * ms, false, false, 5 * ms},
		{"signal after the deadline", 7 * ms, false, false, 5 * ms},
	} {
		e := NewEnv()
		s := NewSignal(e)
		if tc.early {
			e.Schedule(tc.fireAt, s.Fire)
		}
		var fired bool
		var wokeAt, sleptTo time.Duration
		var events uint64
		e.Go("w", func(p *Proc) {
			before := e.Events()
			fired = p.AwaitUntil(s, 5*ms)
			wokeAt, events = e.Now(), e.Events()-before
			p.Wait(20 * ms)
			sleptTo = e.Now()
		})
		if !tc.early && tc.fireAt >= 0 {
			e.Go("firer", func(*Proc) { e.Schedule(tc.fireAt, s.Fire) }) // runs once w has parked
		}
		e.Run()
		if fired != tc.fired || wokeAt != tc.wakeAt {
			t.Errorf("%s: AwaitUntil returned %v at %v, want %v at %v", tc.name, fired, wokeAt, tc.fired, tc.wakeAt)
		}
		if sleptTo != wokeAt+20*ms {
			t.Errorf("%s: a later 20 ms sleep ended at %v, want %v", tc.name, sleptTo, wokeAt+20*ms)
		}
		if tc.fireAt < 0 && events != 1 {
			t.Errorf("%s: %d events, want the one WaitUntil costs", tc.name, events)
		}
		if s.first != nil || len(s.waiters) != 0 || e.q.size != 0 {
			t.Errorf("%s: left behind waiters %v %v, %d queued events", tc.name, s.first, s.waiters, e.q.size)
		}
		e.Close()
	}

	// Not in the future, or already fired: no park.
	e := NewEnv()
	defer e.Close()
	s := NewSignal(e)
	e.Go("w", func(p *Proc) {
		before := e.Events()
		if p.AwaitUntil(s, e.Now()) {
			t.Error("AwaitUntil of a past instant reported an unfired signal fired")
		}
		s.Fire()
		if !p.AwaitUntil(s, time.Hour) || e.Events() != before {
			t.Error("AwaitUntil of a fired signal parked or reported it unfired")
		}
	})
	e.Run()
}

func TestResourceSerializes(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := NewResource(e, 1)
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		e.Go("u", func(p *Proc) {
			r.Acquire(p)
			p.Wait(10 * time.Millisecond)
			r.Release()
			ends = append(ends, e.Now())
		})
	}
	e.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := NewResource(e, 2)
	var ends []time.Duration
	for i := 0; i < 4; i++ {
		e.Go("u", func(p *Proc) {
			r.Acquire(p)
			p.Wait(10 * time.Millisecond)
			r.Release()
			ends = append(ends, e.Now())
		})
	}
	e.Run()
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := NewResource(e, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go("u", func(p *Proc) {
			p.Wait(time.Duration(i) * time.Microsecond) // arrival order 0..4
			r.Acquire(p)
			order = append(order, i)
			p.Wait(time.Millisecond)
			r.Release()
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := NewResource(e, 1)
	if !r.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if r.TryAcquire() {
		t.Fatal("second TryAcquire succeeded on full resource")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Wait(time.Millisecond)
			q.Put(i)
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v, want FIFO 0..4", got)
		}
	}
}

func TestQueueBurstPutWakesAllGetters(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	q := NewQueue[int](e)
	served := 0
	for i := 0; i < 3; i++ {
		e.Go("c", func(p *Proc) {
			q.Get(p)
			served++
		})
	}
	e.Go("p", func(p *Proc) {
		p.Wait(time.Millisecond)
		q.Put(1)
		q.Put(2)
		q.Put(3)
	})
	e.Run()
	if served != 3 {
		t.Fatalf("served = %d, want 3", served)
	}
}

func TestJoin(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var at time.Duration
	worker := e.Go("worker", func(p *Proc) {
		p.Wait(7 * time.Millisecond)
	})
	e.Go("joiner", func(p *Proc) {
		p.Join(worker)
		at = e.Now()
	})
	e.Run()
	if at != 7*time.Millisecond {
		t.Fatalf("join returned at %v, want 7ms", at)
	}
}

func TestJoinFinishedProcess(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	worker := e.Go("worker", func(p *Proc) {})
	joined := false
	e.Go("joiner", func(p *Proc) {
		p.Wait(time.Millisecond)
		p.Join(worker)
		joined = true
	})
	e.Run()
	if !joined {
		t.Fatal("join on finished process did not return")
	}
}

func TestCloseUnwindsBlockedProcesses(t *testing.T) {
	e := NewEnv()
	cleaned := 0
	for i := 0; i < 3; i++ {
		e.Go("stuck", func(p *Proc) {
			defer func() { cleaned++ }()
			p.Wait(time.Hour)
		})
	}
	e.RunUntil(time.Second)
	e.Close()
	if cleaned != 3 {
		t.Fatalf("cleaned = %d, want 3", cleaned)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.Go("boom", func(p *Proc) {
		panic("kaboom")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Run did not propagate process panic")
		}
	}()
	e.Run()
}

func TestUseReleasesOnReturn(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := NewResource(e, 1)
	e.Go("u", func(p *Proc) {
		r.Use(p, func() { p.Wait(time.Millisecond) })
		if r.InUse() != 0 {
			t.Errorf("InUse = %d after Use, want 0", r.InUse())
		}
	})
	e.Run()
}

func TestByteTime(t *testing.T) {
	if got := ByteTime(1000, 1000); got != time.Second {
		t.Fatalf("ByteTime(1000, 1000) = %v, want 1s", got)
	}
	if got := ByteTime(0, 1000); got != 0 {
		t.Fatalf("ByteTime(0, _) = %v, want 0", got)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	l := NewLink(e, 1e6, 0) // 1 MB/s
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		e.Go("x", func(p *Proc) {
			l.Transfer(p, 1e5) // 100ms each
			ends = append(ends, e.Now())
		})
	}
	e.Run()
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if l.Moved() != 3e5 {
		t.Fatalf("Moved = %d, want 3e5", l.Moved())
	}
}

func TestLinkOverhead(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	l := NewLink(e, 1e6, 10*time.Millisecond)
	var end time.Duration
	e.Go("x", func(p *Proc) {
		l.Transfer(p, 1e5)
		end = e.Now()
	})
	e.Run()
	if end != 110*time.Millisecond {
		t.Fatalf("end = %v, want 110ms", end)
	}
}

func TestLinkRateFactorRetimesLaterTransfers(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	l := NewLink(e, 1e6, 0)
	var ends []time.Duration
	e.Go("x", func(p *Proc) {
		l.Transfer(p, 1e5) // 100ms
		ends = append(ends, e.Now())
		l.SetRateFactor(0.5)
		l.Transfer(p, 1e5) // same size, half the rate: 200ms
		ends = append(ends, e.Now())
		l.SetRateFactor(1)
		l.Transfer(p, 1e5)
		ends = append(ends, e.Now())
	})
	e.Run()
	want := []time.Duration{100 * time.Millisecond, 300 * time.Millisecond, 400 * time.Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestSharedLinkFairSharing(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	l := NewSharedLink(e, 1e6) // 1 MB/s
	var ends [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		e.Go("x", func(p *Proc) {
			l.Transfer(p, 1e5)
			ends[i] = e.Now()
		})
	}
	e.Run()
	// Two equal transfers sharing the link finish together at 2x the
	// solo duration.
	for i, end := range ends {
		if d := end - 200*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("transfer %d ended at %v, want ~200ms", i, end)
		}
	}
}

func TestSharedLinkLateArrival(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	l := NewSharedLink(e, 1e6)
	var endA, endB time.Duration
	e.Go("a", func(p *Proc) {
		l.Transfer(p, 1e5) // alone for 50ms (50KB), then shared
		endA = e.Now()
	})
	e.Go("b", func(p *Proc) {
		p.Wait(50 * time.Millisecond)
		l.Transfer(p, 1e5)
		endB = e.Now()
	})
	e.Run()
	// A: 50KB alone (50ms) + 50KB shared (100ms) = done at t=150ms.
	// B: 50KB shared during those 100ms + 50KB alone (50ms) = done at t=200ms.
	if d := endA - 150*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("A ended at %v, want ~150ms", endA)
	}
	if d := endB - 200*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("B ended at %v, want ~200ms", endB)
	}
}

func TestSharedLinkSequentialTransfers(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	l := NewSharedLink(e, 1e6)
	var end time.Duration
	e.Go("x", func(p *Proc) {
		l.Transfer(p, 1e5)
		l.Transfer(p, 1e5)
		end = e.Now()
	})
	e.Run()
	if d := end - 200*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("end = %v, want ~200ms", end)
	}
}

func TestSharedLinkManyConcurrent(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	l := NewSharedLink(e, 44e6)
	done := 0
	for i := 0; i < 44; i++ {
		e.Go("x", func(p *Proc) {
			l.Transfer(p, 1e6)
			done++
		})
	}
	e.Run()
	if done != 44 {
		t.Fatalf("done = %d, want 44", done)
	}
	// 44 x 1MB at 44 MB/s aggregate: all finish together at ~1s.
	if d := e.Now() - time.Second; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("finished at %v, want ~1s", e.Now())
	}
}

// startedBesideTransfer runs a Start/Await transfer in one process and
// an equal Transfer in another, both of n bytes from instant 0; the
// first works for wait between its Start and its Await, and
// at is called at instant mid if mid > 0. It returns the instants
// they finished.
func startedBesideTransfer(t *testing.T, n int, wait, mid time.Duration, at func(*SharedLink)) (started, transferred time.Duration, l *SharedLink) {
	t.Helper()
	e := NewEnv()
	defer e.Close()
	l = NewSharedLink(e, 1e6)
	e.Go("started", func(p *Proc) {
		x := l.Start(n)
		p.Wait(wait)
		l.Await(p, x)
		started = e.Now()
	})
	e.Go("transfer", func(p *Proc) {
		l.Transfer(p, n)
		transferred = e.Now()
	})
	if mid > 0 {
		e.Schedule(mid, func() { at(l) })
	}
	e.Run()
	return started, transferred, l
}

func TestSharedLinkStartDrainsWithTransfer(t *testing.T) {
	started, transferred, l := startedBesideTransfer(t, 1e5, 10*time.Millisecond, 0, nil)
	if started != transferred {
		t.Fatalf("started transfer drained at %v, the Transfer beside it at %v", started, transferred)
	}
	if d := started - 200*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("both drained at %v, want ~200ms", started)
	}
	if l.Moved() != 2e5 {
		t.Fatalf("Moved = %d, want 2e5 (each transfer once)", l.Moved())
	}
}

func TestSharedLinkSetRateFactorRetimesStarted(t *testing.T) {
	started, transferred, l := startedBesideTransfer(t, 1e5, 0, 50*time.Millisecond,
		func(l *SharedLink) { l.SetRateFactor(0.5) })
	if started != transferred {
		t.Fatalf("after a rate change the started transfer drained at %v, the Transfer at %v", started, transferred)
	}
	// 25 KB each at full rate by 50ms, then 75 KB each at 0.25 MB/s.
	if d := started - 350*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("both drained at %v, want ~350ms", started)
	}
	if l.Moved() != 2e5 {
		t.Fatalf("Moved = %d, want 2e5", l.Moved())
	}
}

func TestSharedLinkAwaitDrainedIsFree(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	l := NewSharedLink(e, 1e6)
	e.Go("x", func(p *Proc) {
		x := l.Start(1e5) // drains at 100ms
		p.Wait(time.Second)
		now, events := e.Now(), e.Events()
		l.Await(p, x)
		if e.Now() != now || e.Events() != events {
			t.Errorf("Await of a drained transfer: %v -> %v, %d -> %d events; want no park and no event",
				now, e.Now(), events, e.Events())
		}
		if l.Moved() != 1e5 {
			t.Errorf("Moved = %d after Await, want 1e5", l.Moved())
		}
		l.Await(p, l.Start(0)) // nothing to move, nothing to wait for
		if e.Now() != now || l.Moved() != 1e5 {
			t.Errorf("empty transfer moved the clock or the counter")
		}
	})
	e.Run()
}

// The carrier tests below pin the lifecycle of pooled coroutines: a
// process body borrows a carrier, the handle outlives it, and Close
// ends every carrier whether blocked or idle.

func TestProcHandleOutlivesCarrier(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	first := e.Go("first", func(p *Proc) { p.Wait(time.Millisecond) })
	e.Run()
	if len(e.idle) != 1 {
		t.Fatalf("idle carriers = %d after one process, want 1", len(e.idle))
	}
	c := e.idle[0]
	// A second process takes the same carrier and blocks on it.
	gate := NewSignal(e)
	var ranOn *carrier
	second := e.Go("second", func(p *Proc) {
		ranOn = p.c
		p.Await(gate)
	})
	e.Run()
	if ranOn != c {
		t.Fatal("second process did not reuse the idle carrier")
	}
	if !first.Done() || !first.DoneSignal().Fired() {
		t.Fatal("finished handle lost its state when its carrier was reused")
	}
	if second.Done() {
		t.Fatal("blocked process reports done")
	}
	joined := false
	e.Go("joiner", func(p *Proc) {
		p.Join(first) // already finished: returns at once
		p.Await(second.DoneSignal())
		joined = true
	})
	e.Go("release", func(p *Proc) { gate.Fire() })
	e.Run()
	if !joined || !second.Done() {
		t.Fatalf("joined = %v, second.Done = %v, want both true", joined, second.Done())
	}
}

func TestPanicOnRecycledCarrier(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.Go("warm", func(p *Proc) {})
	e.Run()
	c := e.idle[0]
	var ranOn *carrier
	e.Go("boom", func(p *Proc) {
		ranOn = p.c
		panic("kaboom")
	})
	func() {
		defer func() {
			want := `sim: process "boom" panicked: kaboom`
			if r := recover(); r != want {
				t.Errorf("Run panicked with %v, want %q", r, want)
			}
		}()
		e.Run()
	}()
	if ranOn != c {
		t.Fatal("panicking process did not run on the recycled carrier")
	}
	if len(e.idle) != 0 {
		t.Fatalf("idle carriers = %d, want 0: a carrier whose body panicked must not be pooled", len(e.idle))
	}
}

func TestCloseEndsIdleAndBlockedCarriers(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	const idle, blocked = 5, 3
	for i := 0; i < idle; i++ {
		e.Go("short", func(p *Proc) { p.Wait(time.Millisecond) })
	}
	cleaned := 0
	for i := 0; i < blocked; i++ {
		e.Go("stuck", func(p *Proc) {
			defer func() { cleaned++ }()
			p.Wait(time.Hour)
		})
	}
	e.RunUntil(time.Second)
	if len(e.idle) != idle {
		t.Fatalf("idle carriers = %d, want %d", len(e.idle), idle)
	}
	if got := runtime.NumGoroutine(); got != before+idle+blocked {
		t.Fatalf("goroutines = %d with %d carriers alive, want %d", got, idle+blocked, before+idle+blocked)
	}
	e.Close()
	e.Close() // idempotent
	if cleaned != blocked {
		t.Fatalf("cleaned = %d, want %d", cleaned, blocked)
	}
	if e.liveHead != nil || e.liveTail != nil || len(e.idle) != 0 {
		t.Fatal("Close left processes or carriers registered")
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("goroutines = %d after Close, want %d", got, before)
	}
}

func TestGoFromFinishingProcess(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var child *Proc
	var at time.Duration
	e.Go("parent", func(p *Proc) {
		p.Wait(time.Millisecond)
		// The last thing the body does: by the time the child's start
		// event fires, this carrier is idle and the child takes it.
		defer func() {
			child = e.Go("child", func(cp *Proc) {
				cp.Wait(time.Millisecond)
				at = e.Now()
			})
		}()
	})
	e.RunUntil(time.Millisecond)
	if child == nil || child.Done() {
		t.Fatal("child not spawned by the finishing parent")
	}
	// RunUntilDone must stop on a process that runs on a recycled
	// carrier, leaving later events queued.
	e.Schedule(time.Hour, func() {})
	e.RunUntilDone(child)
	if !child.Done() || at != 2*time.Millisecond || e.Now() != at {
		t.Fatalf("child done = %v at %v, clock %v; want done at 2ms", child.Done(), at, e.Now())
	}
	if len(e.idle) != 1 {
		t.Fatalf("idle carriers = %d, want 1: parent and child share one", len(e.idle))
	}
}

func TestGoOnClosedEnvPanics(t *testing.T) {
	e := NewEnv()
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Go on a closed Env did not panic")
		}
	}()
	e.Go("late", func(p *Proc) {})
}

// TestFullTraceUnchangedByCarrierPool replays a small scenario that
// spawns, joins, parks on every primitive and finishes processes in
// bursts, with the tracer at LevelFull, and compares the event stream
// (spawn/park/resume, acquire/release, transfers) with the hash the
// per-spawn-coroutine kernel produced for it.
func TestFullTraceUnchangedByCarrierPool(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	tr := trace.NewCollector()
	tr.SetLevel(trace.LevelFull)
	e.SetTracer(tr)
	res := NewResource(e, 2)
	res.SetName("res")
	link := NewSharedLink(e, 1e6)
	link.SetName("link")
	all := NewSignal(e)
	e.Go("root", func(p *Proc) {
		for round := 0; round < 3; round++ {
			var kids []*Proc
			for k := 0; k < 4; k++ {
				n := 1000 * (k + 1)
				kids = append(kids, e.Go("kid", func(kp *Proc) {
					res.Acquire(kp)
					link.Transfer(kp, n)
					res.Release()
					if n == 2000 {
						e.Go("grandkid", func(gp *Proc) { gp.Await(all) })
					}
				}))
			}
			for _, kid := range kids {
				p.Join(kid)
			}
			p.Wait(time.Millisecond)
		}
		all.Fire()
	})
	e.Run()
	const want = "912ff95e363a0d1a2bd8e9461cfde511b6aa7b0d7798795f8e727a2bb0db4d52"
	if got := tr.Hash(); got != want {
		t.Fatalf("full trace hash = %s (%d events), want %s", got, tr.Len(), want)
	}
}

// startRec is a request record in the style Env.Start exists for: the
// Proc embedded, the body a method value bound once.
type startRec struct {
	proc Proc
	run  func(*Proc)
	hold time.Duration
	runs int
}

func newStartRec() *startRec {
	r := &startRec{}
	r.run = r.body
	return r
}

func (r *startRec) body(p *Proc) {
	p.Wait(r.hold)
	r.runs++
}

func TestStartReusesStorageAfterJoin(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	r := newStartRec()
	r.hold = time.Millisecond
	var handles [3]*Proc
	var doneAt [3]time.Duration
	root := e.Go("root", func(p *Proc) {
		for i := range handles {
			handles[i] = e.Start(&r.proc, "helper", r.run)
			if handles[i].Done() {
				t.Errorf("round %d: restarted process reads as done", i)
			}
			p.Join(handles[i])
			doneAt[i] = e.Now()
		}
	})
	e.RunUntilDone(root)
	if r.runs != 3 {
		t.Fatalf("body ran %d times, want 3", r.runs)
	}
	for i, h := range handles {
		if h != &r.proc {
			t.Fatalf("round %d: Start returned %p, want the caller's storage %p", i, h, &r.proc)
		}
		if want := time.Duration(i+1) * time.Millisecond; doneAt[i] != want {
			t.Fatalf("round %d joined at %v, want %v", i, doneAt[i], want)
		}
	}
	if e.liveHead != nil || len(e.idle) != 2 {
		t.Fatalf("live list %v, idle carriers %d; want none live and root's + helper's carrier idle", e.liveHead, len(e.idle))
	}
}

func TestStartOnLiveProcPanics(t *testing.T) {
	for _, stage := range []string{"pending", "running"} {
		e := NewEnv()
		r := newStartRec()
		r.hold = time.Hour
		e.Start(&r.proc, "helper", r.run)
		if stage == "running" {
			e.RunUntil(time.Second) // parked in its Wait
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Start on a %s process did not panic", stage)
				}
			}()
			e.Start(&r.proc, "again", r.run)
		}()
		e.Close()
	}
}

func TestCloseUnwindsProcessesStartedOnStorage(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv()
	recs := []*startRec{newStartRec(), newStartRec(), newStartRec()}
	cleaned := 0
	for _, r := range recs {
		r.hold = time.Hour
		e.Start(&r.proc, "stuck", func(p *Proc) {
			defer func() { cleaned++ }()
			r.run(p)
		})
	}
	e.RunUntil(time.Second)
	e.Close()
	if cleaned != len(recs) {
		t.Fatalf("Close unwound %d of %d blocked processes", cleaned, len(recs))
	}
	for i, r := range recs {
		if !r.proc.Done() || r.runs != 0 {
			t.Fatalf("record %d: done %v, body completions %d; want unwound mid-body", i, r.proc.Done(), r.runs)
		}
	}
	if e.liveHead != nil || e.liveTail != nil {
		t.Fatal("Close left processes registered")
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("goroutines = %d after Close, want %d", got, before)
	}
}

// TestReserveAtMatchesSteppedReservations lays a two-stage pipeline
// out in one go with ReserveAt and checks every slot against the same
// pipeline walked by a process that parks at each step and calls
// Reserve there.
func TestReserveAtMatchesSteppedReservations(t *testing.T) {
	const stages = 6
	stageA, stageB := 70*time.Microsecond, 200*time.Microsecond
	type slot struct{ start, end time.Duration }
	var stepped, planned []slot

	e := NewEnv()
	a, b := NewTimeline(e, 1), NewLink(e, 1e6, 0)
	b.Reserve(300) // the bus starts busy: the first page must queue
	walker := e.Go("walker", func(p *Proc) {
		p.Wait(50 * time.Microsecond)
		var pending time.Duration
		for i := 0; i < stages; i++ {
			s, end := a.Reserve(stageA)
			stepped = append(stepped, slot{s, end})
			p.WaitUntil(end)
			p.WaitUntil(pending)
			s, pending = b.Reserve(int(stageB / time.Microsecond))
			stepped = append(stepped, slot{s, pending})
		}
	})
	e.RunUntilDone(walker)
	e.Close()

	e = NewEnv()
	defer e.Close()
	a, b = NewTimeline(e, 1), NewLink(e, 1e6, 0)
	b.Reserve(300)
	e.RunUntil(50 * time.Microsecond)
	cur, pending := e.Now(), time.Duration(0)
	for i := 0; i < stages; i++ {
		s, end := a.ReserveAt(cur, stageA)
		planned = append(planned, slot{s, end})
		if cur = end; pending > cur {
			cur = pending
		}
		s, pending = b.ReserveAt(cur, int(stageB/time.Microsecond))
		planned = append(planned, slot{s, pending})
	}
	for i := range stepped {
		if stepped[i] != planned[i] {
			t.Fatalf("slot %d: planned %v, stepped %v", i, planned[i], stepped[i])
		}
	}
	// An arrival instant in the past is clamped to now, like Reserve.
	if s, _ := NewTimeline(e, 1).ReserveAt(0, stageA); s != e.Now() {
		t.Fatalf("ReserveAt(0) on an idle timeline started at %v, want now (%v)", s, e.Now())
	}
	if b.Moved() != 300+stages*int64(stageB/time.Microsecond) {
		t.Fatalf("link moved %d bytes", b.Moved())
	}
}
