package main

import (
	"runtime"
	"syscall"
	"time"
)

// hostMark is one reading of everything the harness charges to the
// host: wall clock, process CPU time, heap allocations and GC cycles.
// Host numbers say what the simulator costs to run; they are noisy and
// never enter the simulated digest.
type hostMark struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
}

// hostCost is the difference between two marks.
type hostCost struct {
	wallS, cpuS float64
	mallocs     uint64
	gcCycles    uint32
}

func (c *hostCost) add(d hostCost) {
	c.wallS += d.wallS
	c.cpuS += d.cpuS
	c.mallocs += d.mallocs
	c.gcCycles += d.gcCycles
}

// markHost reads the counters first and the wall clock last, so the
// (stop-the-world) counter reads fall outside the interval that
// elapsed() closes by reading the wall clock first.
func markHost() hostMark {
	m := readCounters()
	//sdflint:allow nowallclock host-cost measurement of the simulator itself; never feeds simulated results
	m.wall = time.Now()
	return m
}

func (m hostMark) elapsed() hostCost {
	//sdflint:allow nowallclock host-cost measurement of the simulator itself; never feeds simulated results
	wall := time.Since(m.wall)
	now := readCounters()
	return hostCost{
		wallS:    wall.Seconds(),
		cpuS:     (now.cpu - m.cpu).Seconds(),
		mallocs:  now.mallocs - m.mallocs,
		gcCycles: now.gcs - m.gcs,
	}
}

func readCounters() hostMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // RUSAGE_SELF with a valid pointer cannot fail
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return hostMark{cpu: cpu, mallocs: ms.Mallocs, gcs: ms.NumGC}
}

// liveHeapMB forces a collection and returns the bytes still
// reachable, in MB. Callers keep the simulated stack reachable across
// the call (runtime.KeepAlive) so it measures the stack, not garbage.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
