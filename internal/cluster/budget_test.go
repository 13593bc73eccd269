package cluster

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"sdf/internal/sim"
	"sdf/internal/trace"
)

// TestGetBudget is the gate on what a replicated read costs the
// simulator besides the replica reads themselves (DESIGN.md §15,
// §16): waiting on the readers takes callback handles, not watcher
// processes, and a read allocates nothing once the group's pool of
// read records has filled. It runs in make kernel-bench.
func TestGetBudget(t *testing.T) {
	t.Run("hedged read spawns no watcher", func(t *testing.T) {
		env := sim.NewEnv()
		g, get := slowPrimaryGroup(t, env, DefaultConfig())
		tr := trace.NewCollector()
		tr.SetLevel(trace.LevelFull)
		env.SetTracer(tr)
		w := env.Go("t", func(p *sim.Proc) { get(p) })
		env.RunUntilDone(w)
		env.Close()
		spawns := map[string]int{}
		for _, ev := range tr.Events() {
			if ev.Kind == trace.KindProcSpawn {
				spawns[ev.Name]++
			}
		}
		if g.Stats().Hedges != 1 {
			t.Fatalf("hedges = %d, want 1", g.Stats().Hedges)
		}
		if spawns["cluster/watch"] != 0 || spawns["cluster/get"] != 2 {
			t.Fatalf("hedged Get spawned %d cluster/watch and %d cluster/get, want 0 and 2",
				spawns["cluster/watch"], spawns["cluster/get"])
		}
	})

	t.Run("read allocates nothing", func(t *testing.T) {
		if raceEnabled {
			t.Skip("allocation counts are not stable under the race detector")
		}
		env := sim.NewEnv()
		defer env.Close()
		g, err := NewGroup(env, DefaultConfig(),
			newNode(t, env, "rack1", 0), newNode(t, env, "rack2", 0), newNode(t, env, "rack3", 0))
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Repeat([]byte{1}, 20_000)
		const warm, reads = 100, 200
		var allocs uint64
		w := env.Go("t", func(p *sim.Proc) {
			if err := g.Put(p, "k", val, len(val)); err != nil {
				t.Error(err)
				return
			}
			// A read's record stays out of the pool until its hedge
			// timer has fired, HedgeAfter after the read began: spaced
			// 1 ms apart, about twenty reads fill the pool.
			var before, after runtime.MemStats
			for i := 0; i < warm+reads; i++ {
				p.Wait(time.Millisecond)
				// As in core's TestCommandBudget, the first ReadMemStats
				// absorbs the OS thread a stop-the-world restart may start.
				runtime.ReadMemStats(&before)
				runtime.ReadMemStats(&before)
				if _, _, err := g.Get(p, "k"); err != nil {
					t.Error(err)
					return
				}
				runtime.ReadMemStats(&after)
				if i >= warm {
					allocs += after.Mallocs - before.Mallocs
				}
			}
		})
		env.RunUntilDone(w)
		if allocs != 0 {
			t.Fatalf("%d allocations in %d replicated reads, want 0", allocs, reads)
		}
	})
}
