//go:build race

package main

// raceEnabled reports whether the race detector is compiled in: the
// whole-stack tests skip under it (see internal/sim/race_on_test.go).
const raceEnabled = true
