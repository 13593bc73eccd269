package lint

import (
	"go/ast"
)

// SelectNonDet closes two nondeterminism holes the syntactic analyzers
// cannot see:
//
//  1. A select statement with two or more channel cases: when several
//     cases are ready the Go runtime picks one uniformly at random, so
//     the winner — and everything downstream of it — differs between
//     replays. Simulation code must resolve races in virtual time
//     ((*sim.Env).Schedule with an explicit tie-break) rather than in
//     the host scheduler. A single comm case (with or without default)
//     has nothing to race and passes.
//
//  2. A call chain that ends in a raw go statement living outside
//     rawgo's lexical scope. rawgo only matches the `go` keyword in
//     internal/ (minus internal/sim) files; a helper package at the
//     module root — or any other out-of-scope location — can spawn a
//     host goroutine that sim-domain code then reaches with an
//     ordinary call. The call graph follows every module-local edge
//     (including detached contexts: a goroutine spawned from inside a
//     callback is just as unscheduled), skipping internal/sim (the
//     deterministic handoff itself) and go statements waived by an
//     //sdflint:allow rawgo directive (the approved worker pools).
var SelectNonDet = &Analyzer{
	Name: "selectnondet",
	Doc:  "flag multi-case selects and call chains reaching raw go statements rawgo cannot see",
	Applies: func(f *File) bool {
		return !f.IsTest() && f.In("internal") && !f.In("internal/sim")
	},
}

// Assigned in init to break the same static init cycle as ParkPath's.
func init() { SelectNonDet.Run = runSelectNonDet }

func runSelectNonDet(f *File) []Finding {
	g := f.Module.graph()
	var findings []Finding
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SelectStmt:
			comm := 0
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comm++
				}
			}
			if comm >= 2 {
				findings = append(findings, f.finding("selectnondet", st.Pos(),
					"select with %d channel cases picks among ready cases pseudorandomly, "+
						"so replays diverge; resolve the race in virtual time with an explicit "+
						"deterministic tie-break instead", comm))
			}
		case *ast.CallExpr:
			findings = append(findings, checkSpawnEscape(g, f, st)...)
		}
		return true
	})
	return findings
}

// checkSpawnEscape reports a call whose callee lives outside rawgo's
// lexical scope and (transitively) executes an unwaived raw go
// statement. Callees inside rawgo's scope are skipped: the go
// statement there is rawgo's finding (or carries its waiver), and the
// intermediate frames each get their own finding at the boundary call.
func checkSpawnEscape(g *callGraph, f *File, call *ast.CallExpr) []Finding {
	var findings []Finding
	for _, res := range g.resolve(call) {
		callee := res.node
		if rawGoScope(callee.file) {
			continue // rawgo's territory: the statement itself is flagged there
		}
		chain := g.spawns.chain(callee)
		if chain == nil {
			continue
		}
		findings = append(findings, f.finding("selectnondet", call.Pos(),
			"call to %s reaches a raw go statement (via %s) that rawgo cannot see from "+
				"%s; the goroutine runs under the host scheduler and lands at "+
				"nondeterministic points in virtual time — spawn with (*sim.Env).Go",
			funcName(callee.obj), renderChain(funcName(callee.obj), chain), callee.file.Path))
		break
	}
	return findings
}

// rawGoScope mirrors RawGo.Applies on a file.
func rawGoScope(f *File) bool {
	return f.In("internal") && !f.In("internal/sim")
}
