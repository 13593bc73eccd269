package lint

import (
	"go/ast"
)

// wallClockFuncs maps forbidden package time functions to the virtual
// replacement the message should point at. Types like time.Duration and
// pure arithmetic (time.Unix, d.Seconds()) stay legal: only functions
// that read or wait on the host clock break replay identity.
var wallClockFuncs = map[string]string{
	"Now":       "read virtual time via (*sim.Env).Now",
	"Sleep":     "advance virtual time via (*sim.Proc).Wait",
	"After":     "schedule virtual events via (*sim.Env).Schedule",
	"AfterFunc": "schedule virtual events via (*sim.Env).Schedule",
	"Tick":      "schedule repeating virtual events via (*sim.Env).Schedule",
	"NewTimer":  "schedule virtual events via (*sim.Env).Schedule",
	"NewTicker": "schedule repeating virtual events via (*sim.Env).Schedule",
	"Since":     "subtract (*sim.Env).Now values instead",
	"Until":     "subtract (*sim.Env).Now values instead",
}

// NoWallClock forbids wall-clock reads and timers in simulation code.
// The host clock differs between runs, so any value derived from it
// poisons replay identity; cmd/ and tests run outside the simulated
// world and may use it freely.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc:  "forbid time.Now/Sleep/After/Tick/NewTimer outside cmd/ and tests",
	Applies: func(f *File) bool {
		return !f.IsTest() && !f.In("cmd")
	},
	Run: runNoWallClock,
}

func runNoWallClock(f *File) []Finding {
	var findings []Finding
	f.eachPkgRef("time", func(sel *ast.SelectorExpr) {
		hint, forbidden := wallClockFuncs[sel.Sel.Name]
		if !forbidden {
			return
		}
		findings = append(findings, f.finding("nowallclock", sel.Pos(),
			"time.%s reads the wall clock, which breaks deterministic replay; %s",
			sel.Sel.Name, hint))
	})
	return findings
}
