//go:build race

package cluster

// raceEnabled reports whether the race detector instruments this
// build; allocation-count assertions skip under it.
const raceEnabled = true
