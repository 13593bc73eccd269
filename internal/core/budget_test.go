package core

import (
	"runtime"
	"testing"

	"sdf/internal/rpcnet"
	"sdf/internal/sim"
)

// budgetRig drives one command at a time through a long-lived process,
// so a command can be the body of testing.AllocsPerRun: do hands the
// worker an op and runs the simulation until it has finished. events
// is the scheduler dispatches the last op took, counted around the op
// inside the worker.
type budgetRig struct {
	env    *sim.Env
	jobs   *sim.Queue[func(*sim.Proc)]
	events uint64
}

func newBudgetRig() *budgetRig {
	r := &budgetRig{env: sim.NewEnv()}
	r.jobs = sim.NewQueue[func(*sim.Proc)](r.env)
	r.env.Go("budget", func(p *sim.Proc) {
		for {
			op := r.jobs.Get(p)
			before := r.env.Events()
			op(p)
			r.events = r.env.Events() - before
		}
	})
	return r
}

func (r *budgetRig) do(op func(*sim.Proc)) {
	r.jobs.Put(op)
	r.env.Run()
}

// TestCommandBudget is the gate on what a request costs the simulator
// once every layer it crosses does O(1) kernel work (DESIGN.md §10,
// §15): a device command is a handful of scheduler events whatever its
// size, and neither it nor an rpcnet fan-out allocates in steady state.
// A per-page park or a per-request record shows up here as hundreds of
// events or allocations.
func TestCommandBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	cfg := testConfig()
	cfg.Channels = 2
	rig := newBudgetRig()
	defer rig.env.Close()
	d, err := New(rig.env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fail := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	read := func(size int) func(*sim.Proc) {
		return func(p *sim.Proc) {
			_, err := d.Read(p, 0, 0, 0, size)
			fail(err)
		}
	}
	erase := func(p *sim.Proc) { fail(d.Erase(p, 1, 0)) }
	write := func(p *sim.Proc) { fail(d.Write(p, 1, 0, nil)) }
	eraseWrite := func(p *sim.Proc) { erase(p); write(p) }
	rig.do(func(p *sim.Proc) { fail(d.EraseWrite(p, 0, 0, nil)) })

	for _, c := range []struct {
		name      string
		op        func(*sim.Proc)
		maxEvents uint64
	}{
		{"8 KB read", read(d.PageSize()), 8},
		{"8 MB read", read(d.BlockSize()), 8},
	} {
		rig.do(c.op) // warm the record pool and the carriers
		if allocs := testing.AllocsPerRun(20, func() { rig.do(c.op) }); allocs != 0 {
			t.Errorf("%s: %.0f allocations per command, want 0", c.name, allocs)
		}
		if rig.events > c.maxEvents {
			t.Errorf("%s: %d scheduler events, budget %d", c.name, rig.events, c.maxEvents)
		}
	}

	// A write needs an erased block each time, so erases and writes
	// alternate and each is counted on its own. Wear leveling hands each
	// erase the least-worn free block: the steady state — every block
	// written once, its out-of-band record recycled when its turn comes
	// again — takes a full rotation of the plane to reach.
	for i := 0; i < 2*cfg.Channel.Nand.BlocksPerPlane; i++ {
		rig.do(eraseWrite)
	}
	mallocs := func(op func(*sim.Proc)) uint64 {
		// ReadMemStats stops the world, and restarting it may start an
		// OS thread, which allocates after the snapshot was taken: the
		// first call absorbs that, the second opens the window.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runtime.ReadMemStats(&before)
		rig.do(op)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	var eraseAllocs, writeAllocs, eraseEvents uint64
	for i := 0; i < 20; i++ {
		eraseAllocs += mallocs(erase)
		eraseEvents = max(eraseEvents, rig.events)
		writeAllocs += mallocs(write)
	}
	// An erase spawns one worker per chip, each erasing its two planes
	// in turn: 9 events on two chips.
	if eraseAllocs != 0 {
		t.Errorf("8 MB erase: %d allocations in 20 commands, want 0", eraseAllocs)
	}
	if eraseEvents > 9 {
		t.Errorf("8 MB erase: %d scheduler events, budget 9", eraseEvents)
	}
	if writeAllocs != 0 {
		t.Errorf("8 MB write: %d allocations in 20 commands, want 0", writeAllocs)
	}
	if rig.events > 16 {
		t.Errorf("8 MB write: %d scheduler events, budget 16", rig.events)
	}

	// A batch-44 Call of no-op sub-requests: 44 rpcnet/sub processes, no
	// response, nothing allocated but the odd slice growth.
	net := rpcnet.NewNetwork(rig.env, rpcnet.DefaultConfig())
	client := net.NewClient()
	batch := make([]rpcnet.SubRequest, 44)
	for i := range batch {
		batch[i] = func(*sim.Proc) int { return 0 }
	}
	call := func(p *sim.Proc) { client.Call(p, 64, batch) }
	rig.do(call)
	if allocs := testing.AllocsPerRun(20, func() { rig.do(call) }); allocs > 2 {
		t.Errorf("batch-44 Call: %.0f allocations, budget 2", allocs)
	}

	// The same Call with a 512 KB response per sub-request. Each
	// sub-request starts its response's server-NIC leg, carries the
	// client-NIC leg and awaits the first, in one process: at most 6
	// events each, start, CPU slot and NIC completions included.
	for i := range batch {
		batch[i] = func(*sim.Proc) int { return 512 << 10 }
	}
	rig.do(call)
	if budget := uint64(6 * len(batch)); rig.events > budget {
		t.Errorf("batch-44 Call of 512 KB responses: %d scheduler events, budget %d", rig.events, budget)
	}
}

// TestCommandBudgetRetainedHeap is the gate on what a programmed block
// costs the simulator to remember: its pages' out-of-band records are
// kept as one run per plane over one record per block write (DESIGN.md
// §15), so 256 timing-only 8 MB blocks on one channel — 262144 pages —
// retain a few tens of KB, the FTL's own per-block map entry included.
// A record per page is 11 MB here.
func TestCommandBudgetRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not stable under the race detector")
	}
	const blocks = 256
	cfg := testConfig()
	cfg.Channels = 1
	cfg.Channel.Nand.BlocksPerPlane = blocks + 1 + cfg.Channel.SparePerPlane
	rig := newBudgetRig()
	defer rig.env.Close()
	d, err := New(rig.env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	each := func(op func(p *sim.Proc, lbn int) error) {
		rig.do(func(p *sim.Proc) {
			for lbn := 0; lbn < blocks; lbn++ {
				if err := op(p, lbn); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle frees what the first one's sweep was still holding
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	each(func(p *sim.Proc, lbn int) error { return d.Erase(p, 0, lbn) })
	rig.do(func(p *sim.Proc) { // the engine's one-time buffers are not the blocks'
		if err := d.EraseWrite(p, 0, blocks, nil); err != nil {
			t.Fatal(err)
		}
	})
	before := live()
	each(func(p *sim.Proc, lbn int) error { return d.Write(p, 0, lbn, nil) })
	retained := int64(live()) - int64(before)
	runtime.KeepAlive(d)
	t.Logf("%d blocks programmed: %d bytes retained (%.1f per block)", blocks, retained, float64(retained)/blocks)
	if retained >= 64<<10 {
		t.Errorf("%d programmed blocks retain %d bytes of heap, budget 64 KB", blocks, retained)
	}
}
