package main

import "time"

// sizing is how much simulated work one repetition does: fixed op
// counts and simulated horizons. The benchmark always runs frozen, so
// both sides of any later A/B do identical simulated work; tests run a
// tiny one.
type sizing struct {
	// dev-raw, per channel.
	devRawWriteBlocks int // 8 MB EraseWrite each
	devRawSeqReads    int // 8 MB each
	devRawRandReads   int // 8 KB each

	// Simulated horizons of the measured phase, and the warm-up
	// instant after which request latencies count.
	kvReadHorizon, kvReadWarmup   time.Duration
	kvWriteHorizon, kvWriteWarmup time.Duration
	cmHorizon, cmWarmup           time.Duration

	cmObjKeys int // cluster-mixed: 8 KB objects, flushed to flash by the preload
	readback  int // acknowledged keys read back after the horizon
}

// frozen was calibrated once, at the commit that added the benchmark,
// so that a repetition costs about 1-2 s of host time on the 2-core
// reference box; it must not change with the code it measures.
var frozen = sizing{
	devRawWriteBlocks: 6,
	devRawSeqReads:    12,
	devRawRandReads:   2500,
	kvReadHorizon:     8 * time.Second,
	kvReadWarmup:      100 * time.Millisecond,
	kvWriteHorizon:    30 * time.Second,
	kvWriteWarmup:     time.Second,
	cmHorizon:         3 * time.Second,
	cmWarmup:          100 * time.Millisecond,
	cmObjKeys:         768,
	readback:          64,
}
