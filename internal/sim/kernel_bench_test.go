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
			s := NewSignal(env)
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
// per spawn instead: the Proc handle and the caller's body closure, 2,
// where creating a coroutine per spawn costs ~15.
func TestKernelFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const bound = 0.05
	cases := []struct {
		name   string
		spawns int
		build  func(env *Env)
	}{
		{"timed-callback-chain", 0, func(env *Env) {
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
		{"proc-wait-loop", 0, func(env *Env) {
			env.Go("worker", func(p *Proc) {
				for i := 0; i < 100000; i++ {
					p.Wait(time.Microsecond)
				}
			})
		}},
		{"timeline-occupy", 0, func(env *Env) {
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
		{"same-instant-grant-burst", 0, func(env *Env) {
			tl := NewTimeline(env, 64)
			for w := 0; w < 64; w++ {
				env.Go("worker", func(p *Proc) {
					for i := 0; i < 3000; i++ {
						tl.Occupy(p, time.Microsecond)
					}
				})
			}
		}},
		// Request churn: 8 workers spawned and joined per round, so the
		// carrier pool holds 8 and every later spawn must reuse one.
		{"spawn-join-churn", 8 * 5000, func(env *Env) {
			env.Go("parent", func(p *Proc) { spawnJoin(p, 5000, 8) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs, events := runAllocs(tc.build)
			if tc.spawns > 0 {
				if got := allocs / float64(tc.spawns); got > 2+bound {
					t.Errorf("%s: %.4f allocs/spawn, want <= %.2f", tc.name, got, 2+bound)
				}
				return
			}
			if got := allocs / events; got > bound {
				t.Errorf("%s: %.4f allocs/event, want <= %.2f", tc.name, got, bound)
			}
		})
	}
}
