package main

import (
	"iter"
	"math/rand"
)

// The reference box is a shared 2-core VM whose speed drifts by up to
// 30 % for minutes at a time (measured: two back-to-back sets of ten
// runs of the same binary differed by that much on three workloads).
// Host times are therefore reported speed-normalized: every repetition
// sits between two runs of calibrate(), a fixed piece of runtime-only
// work, and its host seconds are scaled by calRefS / (the mean of what
// those two took). The result reads as "seconds at the reference
// speed". The calibration runs no code of this repository,
// so nothing a later change does to the simulator can move it;
// `host.speed` in the per-layer ledger is the factor that was applied.

// calRefS is calibrate()'s host time on the reference box in a quiet
// period. It only fixes the scale of the normalized seconds.
const calRefS = 0.100

const (
	calChase    = 1 << 20 // uint32 cells: 4 MB, beyond L2
	calSteps    = 1 << 21
	calAllocs   = 240000
	calRetain   = 4096
	calSwitches = 160000
	calCompute  = 5000000
)

// calCycle is one random cycle through calChase cells, built once.
var calCycle = func() []uint32 {
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(calChase)
	next := make([]uint32, calChase)
	for i, p := range perm {
		next[p] = uint32(perm[(i+1)%calChase])
	}
	return next
}()

var calSink uint64

// calibrate does a fixed mix of what the simulator's host time is made
// of — dependent loads over a working set larger than L2, small heap
// allocations with a few survivors, coroutine switches, integer work —
// and returns how long it took.
func calibrate() float64 {
	m := markHost()
	var acc uint64

	at := uint32(0)
	for i := 0; i < calSteps; i++ {
		at = calCycle[at]
		acc += uint64(at)
	}

	ring := make([]*[8]uint64, calRetain)
	for i := 0; i < calAllocs; i++ {
		cell := new([8]uint64)
		cell[0] = acc + uint64(i)
		ring[i%calRetain] = cell
	}
	acc += ring[calRetain/2][0]

	next, stop := iter.Pull(func(yield func(uint64) bool) {
		x := uint64(88172645463325252)
		for {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if !yield(x) {
				return
			}
		}
	})
	for i := 0; i < calSwitches; i++ {
		v, _ := next()
		acc ^= v
	}
	stop()

	x := acc | 1
	for i := 0; i < calCompute; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	acc += x

	calSink += acc
	return m.elapsed().wallS
}
