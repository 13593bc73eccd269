package sim

import (
	"runtime"
	"testing"
	"time"
)

// The BenchmarkKernel* set measures the scheduler primitives that
// bound experiment wall-clock (DESIGN.md "Kernel performance"): run
// with
//
//	go test ./internal/sim -bench=BenchmarkKernel -benchmem
//
// The fast paths (timed callbacks, typed process resumes, timeline
// occupancy) must stay allocation-free per event;
// TestKernelFastPathAllocs pins that down numerically.

// BenchmarkKernelScheduleFire measures the inline-callback fast path:
// a self-rescheduling timed callback, the shape of every link
// completion and timer pop after the overhaul.
func BenchmarkKernelScheduleFire(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	defer env.Close()
	remaining := b.N
	var fire func()
	fire = func() {
		remaining--
		if remaining > 0 {
			env.Schedule(time.Microsecond, fire)
		}
	}
	env.Schedule(time.Microsecond, fire)
	env.Run()
}

// BenchmarkKernelParkResume measures a full process park/resume cycle
// (Proc.Wait): one typed event plus two goroutine handoffs. This is
// the remaining process path, kept for state-dependent waits.
func BenchmarkKernelParkResume(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	defer env.Close()
	env.Go("worker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(time.Microsecond)
		}
	})
	env.Run()
}

// BenchmarkKernelAbandonedTimers is BenchmarkKernelParkResume with
// 1,000 abandoned AwaitUntil timers outstanding — waits whose signal
// fired first, as a replica deadline or an admission wait leaves them
// — whose instants lie past the run. Dropping one when its instant
// comes must not cost a lookup among the others on every event.
func BenchmarkKernelAbandonedTimers(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	defer env.Close()
	env.Go("worker", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			s := new(Signal)
			env.Schedule(time.Microsecond, s.Fire)
			p.AwaitUntil(s, time.Duration(1+i)*time.Hour)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Wait(time.Microsecond)
		}
		b.StopTimer()
	})
	env.RunUntil(time.Hour)
}

// BenchmarkKernelTimelineOccupy measures timed occupancy under
// contention: four processes sharing a capacity-1 timeline, each op
// one park.
func BenchmarkKernelTimelineOccupy(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	defer env.Close()
	tl := NewTimeline(env, 1)
	for w := 0; w < 4; w++ {
		n := b.N / 4
		if w == 0 {
			n += b.N % 4
		}
		iters := n
		env.Go("worker", func(p *Proc) {
			for i := 0; i < iters; i++ {
				tl.Occupy(p, time.Microsecond)
			}
		})
	}
	env.Run()
}

// BenchmarkKernelResourceContention measures the same contention
// pattern on the process-path primitive the timeline replaced:
// Acquire/Wait/Release on a capacity-1 Resource.
func BenchmarkKernelResourceContention(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	defer env.Close()
	res := NewResource(env, 1)
	for w := 0; w < 4; w++ {
		n := b.N / 4
		if w == 0 {
			n += b.N % 4
		}
		iters := n
		env.Go("worker", func(p *Proc) {
			for i := 0; i < iters; i++ {
				res.Acquire(p)
				p.Wait(time.Microsecond)
				res.Release()
			}
		})
	}
	env.Run()
}

// BenchmarkKernelHeapChurn measures heap push/pop with a deep queue:
// 512 outstanding callbacks at staggered delays keep the 4-ary heap
// exercising multi-level sift-downs.
func BenchmarkKernelHeapChurn(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	defer env.Close()
	remaining := b.N
	var fire func()
	delay := time.Duration(0)
	fire = func() {
		remaining--
		if remaining > 0 {
			// Vary the delay deterministically so pushed events land
			// throughout the queue, not always at its tail.
			delay = (delay*131 + 7) % 509
			env.Schedule(delay*time.Microsecond, fire)
		}
	}
	outstanding := 512
	if b.N < outstanding {
		outstanding = b.N
	}
	for i := 0; i < outstanding; i++ {
		env.Schedule(time.Duration(i)*time.Microsecond, fire)
	}
	env.Run()
}

// BenchmarkKernelSameInstantChurn measures the calendar queue at its
// bucket boundaries: 64 workers on a capacity-64 timeline all complete
// each round at one shared instant, so every round coalesces into a
// single batched grant, fully drains the current bucket (retiring it
// to the free list), and opens the next — the heaviest tie-churn shape
// the device models generate, at maximum pooling-path pressure.
func BenchmarkKernelSameInstantChurn(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	defer env.Close()
	const workers = 64
	tl := NewTimeline(env, workers)
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w == 0 {
			n += b.N % workers
		}
		iters := n
		env.Go("worker", func(p *Proc) {
			for i := 0; i < iters; i++ {
				tl.Occupy(p, time.Microsecond)
			}
		})
	}
	env.Run()
}

// BenchmarkKernelSpawnJoin measures the request shape of every layer
// above the kernel: spawn a short-lived worker process and join it.
// After the first iteration the worker runs on a recycled carrier, so
// an op is one Proc, one body closure, and three events.
func BenchmarkKernelSpawnJoin(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	defer env.Close()
	env.Go("parent", func(p *Proc) { spawnJoin(p, b.N, 1) })
	env.Run()
}

// BenchmarkKernelEnvChurn measures what every registry point and
// benchmark repetition pays to start: an op builds an Env, runs 700
// concurrent request processes (a kv-read Env's peak) to completion and
// closes it. Carriers outlive their Env, so after the first op the
// processes run on the coroutines earlier Envs released and an op
// allocates the Procs, not 700 coroutines.
func BenchmarkKernelEnvChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		churnEnv(700)
	}
}

// churnEnv builds an Env, runs n concurrent processes joined by a
// parent, and closes it.
func churnEnv(n int) {
	env := NewEnv()
	defer env.Close()
	env.Go("parent", func(p *Proc) { fanOut(p, n) })
	env.Run()
}

// fanOut spawns n workers at once, with a body that captures nothing,
// and joins them.
func fanOut(p *Proc, n int) {
	env := p.Env()
	kids := make([]*Proc, n)
	for k := range kids {
		kids[k] = env.Go("worker", func(wp *Proc) { wp.Wait(time.Microsecond) })
	}
	for _, kid := range kids {
		p.Join(kid)
	}
}

// spawnJoin runs rounds of: spawn fan workers whose body closes over
// per-worker state (as request closures do), then join them all.
func spawnJoin(p *Proc, rounds, fan int) {
	env := p.Env()
	kids := make([]*Proc, fan)
	for i := 0; i < rounds; i++ {
		for k := range kids {
			d := time.Duration(k+1) * time.Microsecond
			kids[k] = env.Go("worker", func(wp *Proc) { wp.Wait(d) })
		}
		for _, kid := range kids {
			p.Join(kid)
		}
	}
}

// BenchmarkKernelCallbackWake measures the hand-off that replaces a
// spawned watcher: a callback handle enrolled on a signal, woken by a
// timed callback that fires it. An op is two events — the timer and
// the handle's wake — and no coroutine switch.
func BenchmarkKernelCallbackWake(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	defer env.Close()
	handleWakes(env, b.N)
	env.Run()
}

// handleWakes sets up rounds of: a timer fires a signal a callback
// handle is enrolled on, and the handle re-arms both.
func handleWakes(env *Env, rounds int) {
	var sig Signal
	var h Proc
	fire := sig.Fire
	arm := func() {
		sig = Signal{}
		sig.Enroll(&h)
		env.Schedule(time.Microsecond, fire)
	}
	env.Handle(&h, func() {
		if rounds--; rounds > 0 {
			arm()
		}
	})
	arm()
}

// fanIn sets up rounds of: a timer fires a re-armed signal three
// callback handles are enrolled on, and the last of them to run
// re-arms the signal and enrolls all three again.
func fanIn(env *Env, rounds int) {
	var sig Signal
	var hs [3]Proc
	fire := sig.Fire
	arm := func() {
		sig = Signal{}
		for i := range hs {
			sig.Enroll(&hs[i])
		}
		env.Schedule(time.Microsecond, fire)
	}
	ran := 0
	for i := range hs {
		env.Handle(&hs[i], func() {
			if ran++; ran%len(hs) == 0 && ran/len(hs) < rounds {
				arm()
			}
		})
	}
	arm()
}

// BenchmarkKernelDeepQueue measures the two FIFO pops under depth: an
// op is one worker's turn on a capacity-1 Resource that 1,000 workers
// queue on, during which it takes the head of a Queue 100,000 items
// deep and puts it back. Both pops must cost the same at any depth.
func BenchmarkKernelDeepQueue(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	defer env.Close()
	q := NewQueue[int](env)
	for i := 0; i < 100000; i++ {
		q.Put(i)
	}
	res := NewResource(env, 1)
	const workers = 1000
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		env.Go("worker", func(p *Proc) {
			for i := 0; i < n; i++ {
				res.Acquire(p)
				q.Put(q.Get(p))
				p.Wait(time.Microsecond)
				res.Release()
			}
		})
	}
	b.ResetTimer()
	env.Run()
}

// runAllocs builds a workload on a fresh Env, runs it to completion,
// and returns the heap allocations and dispatched events of the run.
func runAllocs(build func(env *Env)) (allocs, events float64) {
	env := NewEnv()
	defer env.Close()
	build(env)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	env.Run()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(env.Events())
}

// TestKernelFastPathAllocs asserts the -benchmem property the
// benchmarks report: steady-state fast-path traffic does not allocate.
// Bounds are loose (0.05 allocs/event) to absorb one-time costs —
// heap growth, coroutine stacks — without letting a per-event closure
// (1+ allocs/event) sneak back in. A case with spawns > 0 is bounded
// per spawn instead, by perSpawn: the Proc handle and, where the body
// captures state, its closure, where creating a coroutine per spawn
// costs ~15.
func TestKernelFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const bound = 0.05
	cases := []struct {
		name     string
		spawns   int
		perSpawn float64
		build    func(env *Env)
	}{
		{"timed-callback-chain", 0, 0, func(env *Env) {
			remaining := 200000
			var fire func()
			fire = func() {
				remaining--
				if remaining > 0 {
					env.Schedule(time.Microsecond, fire)
				}
			}
			env.Schedule(time.Microsecond, fire)
		}},
		{"proc-wait-loop", 0, 0, func(env *Env) {
			env.Go("worker", func(p *Proc) {
				for i := 0; i < 100000; i++ {
					p.Wait(time.Microsecond)
				}
			})
		}},
		{"timeline-occupy", 0, 0, func(env *Env) {
			tl := NewTimeline(env, 2)
			for w := 0; w < 3; w++ {
				env.Go("worker", func(p *Proc) {
					for i := 0; i < 50000; i++ {
						tl.Occupy(p, time.Microsecond)
					}
				})
			}
		}},
		// The two pooled structures under maximum pressure: every round
		// batches 64 wakeups into one grant (grant pool) and drains one
		// bucket per instant (bucket free list). Steady state must
		// recycle both — a leak here shows up as ~1/64 allocs/event.
		{"same-instant-grant-burst", 0, 0, func(env *Env) {
			tl := NewTimeline(env, 64)
			for w := 0; w < 64; w++ {
				env.Go("worker", func(p *Proc) {
					for i := 0; i < 3000; i++ {
						tl.Occupy(p, time.Microsecond)
					}
				})
			}
		}},
		// A callback handle woken through a signal, round after round:
		// the wake is a grant entry, and the handle's record is reused.
		{"handle-wake", 0, 0, func(env *Env) { handleWakes(env, 100000) }},
		// An op span on an untraced env, as core, blocklayer and ssd
		// open one per request: BeginOp and its closer cost nothing.
		{"untraced-begin-op", 0, 0, func(env *Env) {
			env.Go("worker", func(p *Proc) {
				for i := 0; i < 100000; i++ {
					end := p.BeginOp("op")
					p.Wait(time.Microsecond)
					end()
				}
			})
		}},
		// Three handles on one signal, re-armed every round: enrolling
		// more than one waiter must not allocate.
		{"signal-fan-in", 0, 0, func(env *Env) { fanIn(env, 50000) }},
		// Waiters at two priorities on a capacity-1 resource, so the
		// prio-0 ones overtake, beside a process whose AwaitUntil on a
		// signal another process waits on times out every round.
		{"resource-contention", 0, 0, func(env *Env) {
			res := NewResource(env, 1)
			for w := 0; w < 4; w++ {
				prio := w % 2
				env.Go("worker", func(p *Proc) {
					for i := 0; i < 20000; i++ {
						res.AcquirePrio(p, prio)
						p.Wait(time.Microsecond)
						res.Release()
					}
				})
			}
			never := new(Signal)
			env.Go("waiter", func(p *Proc) { p.Await(never) })
			env.Go("timeout", func(p *Proc) {
				for i := 0; i < 20000; i++ {
					p.AwaitUntil(never, env.Now()+time.Microsecond)
				}
			})
		}},
		// Request churn: 8 workers spawned and joined per round, so the
		// carrier pool holds 8 and every later spawn must reuse one.
		{"spawn-join-churn", 8 * 5000, 2, func(env *Env) {
			env.Go("parent", func(p *Proc) { spawnJoin(p, 5000, 8) })
		}},
		// A fresh Env after an earlier one closed: its 700 concurrent
		// workers (and their parent) start on the carriers the closed
		// Env released, so a spawn+join allocates only the Proc.
		{"fresh-env", 700, 1, func(env *Env) {
			churnEnv(700)
			env.Go("parent", func(p *Proc) { fanOut(p, 700) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs, events := runAllocs(tc.build)
			if tc.spawns > 0 {
				if got := allocs / float64(tc.spawns); got > tc.perSpawn+bound {
					t.Errorf("%s: %.4f allocs/spawn, want <= %.2f", tc.name, got, tc.perSpawn+bound)
				}
				return
			}
			if got := allocs / events; got > bound {
				t.Errorf("%s: %.4f allocs/event, want <= %.2f", tc.name, got, bound)
			}
		})
	}
}
