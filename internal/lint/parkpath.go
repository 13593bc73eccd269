package lint

import (
	"go/ast"
	"strings"
)

// ParkPath is the whole-program upgrade of inlinepark: where the
// syntactic analyzer only sees a blocking construct written directly
// inside an inline scheduler callback, parkpath follows the static
// call graph, so a Proc.Wait hidden two frames below the callback —
// through a helper that blocks on a *stored* or *captured* process
// handle, with no *sim.Proc crossing any call boundary — is still
// reported. Direct blocking inside the literal stays inlinepark's
// territory; parkpath reports only chains of length >= 1, so the two
// analyzers never duplicate a finding. A callback given by name (a
// function or a method value, such as a callback handle's body) has no
// literal for inlinepark to read, so parkpath reports it whether it
// blocks in its own body or below.
//
// The traversal uses only non-detached call edges: code inside a
// nested (*sim.Env).Go literal runs as a fresh process where blocking
// is legal, and nested inline callbacks are scanned as callbacks of
// their own. Calls through plain function values are not resolved by
// the graph and are therefore not followed — a deliberate gap shared
// with every static call-graph tool; interface method calls are
// followed conservatively to every implementing method in the module.
var ParkPath = &Analyzer{
	Name: "parkpath",
	Doc:  "forbid transitively-blocking calls inside inline scheduler callbacks (call-graph aware)",
	Applies: func(f *File) bool {
		return !f.IsTest() && f.In("internal") && !f.In("internal/sim")
	},
}

// Assigned in init: runParkPath reaches analyzerNames through the
// directive parser, which would otherwise be a static init cycle.
func init() { ParkPath.RunModule = runParkPath }

func runParkPath(m *Module) []Finding {
	g := m.graph()
	var findings []Finding
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			if !ParkPath.Applies(f) {
				continue
			}
			findings = append(findings, parkPathFile(g, f)...)
		}
	}
	return findings
}

// parkPathFile scans one file for inline callback literals and checks
// every resolvable call inside them against the call graph.
func parkPathFile(g *callGraph, f *File) []Finding {
	var findings []Finding
	m := f.Module
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		idx, ok := inlineCallbackArg(m, sel, call)
		if !ok {
			return true
		}
		switch arg := call.Args[idx].(type) {
		case *ast.FuncLit:
			findings = append(findings, checkCallbackCalls(g, f, sel.Sel.Name, arg)...)
		case *ast.Ident, *ast.SelectorExpr:
			if fd := checkCallbackValue(g, f, sel.Sel.Name, arg); fd != nil {
				findings = append(findings, *fd)
			}
		}
		return true
	})
	return findings
}

// checkCallbackValue checks a callback given by name — a function, or
// a method value such as a record's handle body (env.Handle(&r.h,
// r.step)) — whose own body may block directly or below: the body is
// the whole callback, so its direct parks count too.
func checkCallbackValue(g *callGraph, f *File, entry string, fn ast.Expr) *Finding {
	for _, res := range g.resolve(&ast.CallExpr{Fun: fn}) {
		chain := g.blockChain(res.node)
		if chain == nil {
			continue
		}
		name := funcName(res.node.obj)
		fd := f.finding("parkpath", fn.Pos(),
			"%s, run as a %s callback, reaches blocking %s via %s; the callback runs on "+
				"the scheduler goroutine, so this parks it and deadlocks the simulation — "+
				"spawn a process with (*sim.Env).Go instead",
			name, entry, chain[len(chain)-1].name, renderChain(name, chain))
		return &fd
	}
	return nil
}

// checkCallbackCalls walks one callback literal and, for every call
// that does not block directly (inlinepark's cases), asks the call
// graph whether the callee can reach a blocking construct.
func checkCallbackCalls(g *callGraph, f *File, entry string, lit *ast.FuncLit) []Finding {
	var findings []Finding
	m := f.Module
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Go" {
				if recv := m.typeOf(sel.X); recv == nil || isSimNamed(recv, "Env") {
					return false // fresh process context: blocking is legal below here
				}
			}
			if idx, ok := inlineCallbackArg(m, sel, call); ok {
				if _, ok := call.Args[idx].(*ast.FuncLit); ok {
					return false // a nested inline callback is scanned on its own
				}
			}
		}
		if _, direct := blockingCallSite(m, call); direct {
			return true // inlinepark reports direct blocking; no duplicate
		}
		for _, res := range g.resolve(call) {
			chain := g.blockChain(res.node)
			if chain == nil {
				continue
			}
			findings = append(findings, f.finding("parkpath", call.Pos(),
				"call inside a %s callback reaches blocking %s via %s; the callback runs on "+
					"the scheduler goroutine, so this parks it and deadlocks the simulation — "+
					"spawn a process with (*sim.Env).Go instead",
				entry, chain[len(chain)-1].name, renderChain(funcName(res.node.obj), chain)))
			break // one finding per call site, on the first resolved path
		}
		return true
	})
	return findings
}

// renderChain formats "a → b → <block>" for a finding message. The
// last step is the blocking construct itself, already named in the
// message, so it is dropped from the arrow chain.
func renderChain(first string, chain []chainStep) string {
	parts := []string{first}
	for _, s := range chain[:len(chain)-1] {
		parts = append(parts, s.name)
	}
	return strings.Join(parts, " -> ")
}
