// Command sdflint checks the module against the determinism rules
// described in DESIGN.md ("Determinism rules" and "Whole-program
// analysis"): no wall-clock time in simulation code, no global
// math/rand, no goroutines outside the deterministic scheduler, no
// map iteration feeding ordered output — and, over a whole-module
// call graph, no blocking reachable from scheduler callbacks, no
// leaked trace spans, no dropped crash-consistency-critical errors,
// no racing selects or escaped spawns, no stale suppressions.
//
// Usage:
//
//	go run ./cmd/sdflint ./...
//	go run ./cmd/sdflint ./internal/ssd ./internal/ccdb/...
//	go run ./cmd/sdflint -list
//	go run ./cmd/sdflint -sarif sdflint.sarif ./...
//
// Findings print as "file:line: [analyzer] message"; -sarif
// additionally writes a SARIF 2.1.0 report. Exit status is 0 for a
// clean tree, 1 when findings were reported, 2 on usage or load errors
// — and a tree that fails to parse or type-check is a load error.
// Individual lines can be waived with a mandatory-reason suppression
// comment: //sdflint:allow <analyzer> <reason>.
package main

import (
	"os"

	"sdf/internal/lint"
)

func main() {
	os.Exit(lint.Main(".", os.Args[1:], os.Stdout, os.Stderr))
}
