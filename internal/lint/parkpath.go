package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ParkPath flags blocking inside inline callbacks. The kernel's fast
// path ((*sim.Env).Schedule) runs the supplied function directly on the
// scheduler goroutine between events, and so does a callback handle
// ((*sim.Env).Handle) wherever it is woken: there is no process to
// park, so calling a blocking Proc API from one — Wait, WaitUntil,
// Await, Join, or anything that takes a *sim.Proc such as Acquire,
// Transfer, Occupy or Queue.Get — deadlocks the simulation (see
// DESIGN.md, "Kernel performance"). The metrics registry's
// callback-backed instruments ((*metrics.Registry).GaugeFunc and
// CounterFunc) carry the same contract: the sampler and the exporters
// invoke those callbacks inline — sometimes outside any process, after
// the run — so they must be park-free reads.
//
// A blocking call written in the callback literal is reported directly.
// Every other call is followed along the static call graph, so a
// Proc.Wait hidden two frames below the callback — through a helper
// that blocks on a *stored* or *captured* process handle, with no
// *sim.Proc crossing any call boundary — is reported too. A callback
// given by name (a function or a method value, such as a callback
// handle's body) is reported whether it blocks in its own body or
// below.
//
// Spawning a fresh process with (*sim.Env).Go from a callback is the
// legal way to re-enter blocking code, so Go literals are not descended
// into, and nested inline callbacks are scanned as callbacks of their
// own. The sim calls that take a *sim.Proc without parking
// (procTakingNonBlocking) are legal in a callback. internal/sim itself
// is exempt: the kernel parks and resumes processes as part of
// implementing them. Calls through plain function values are not
// resolved by the graph and are therefore not followed — a deliberate
// gap shared with every static call-graph tool; interface method calls
// are followed conservatively to every implementing method in the
// module.
var ParkPath = &Analyzer{
	Name: "parkpath",
	Doc:  "forbid blocking calls, direct or through the call graph, inside inline callbacks (Schedule/Handle/GaugeFunc/CounterFunc)",
	Applies: func(f *File) bool {
		return !f.IsTest() && f.In("internal") && !f.In("internal/sim")
	},
}

// Assigned in init: the call graph reaches analyzerNames through the
// directive parser, which would otherwise be a static init cycle.
func init() { ParkPath.Run = runParkPath }

// blockingProcMethods are the (*sim.Proc) methods that park the
// calling process.
var blockingProcMethods = map[string]bool{
	"Wait": true, "WaitUntil": true, "Await": true, "AwaitUntil": true, "Join": true,
}

// inlineCallback describes one entry point whose callback argument
// runs inline on the scheduler goroutine (or outside any process
// entirely, for registry instruments read at export time).
type inlineCallback struct {
	arg int    // index of the callback argument
	pkg string // receiver's package name
	typ string // receiver's named type
}

// inlineCallbackMethods maps entry points that run a callback inline
// to the callback argument index and the receiver type that owns the
// method, so an unrelated type's same-named method is not matched.
var inlineCallbackMethods = map[string][]inlineCallback{
	"Schedule":    {{arg: 1, pkg: "sim", typ: "Env"}},          // (*sim.Env).Schedule(d, fn)
	"Handle":      {{arg: 1, pkg: "sim", typ: "Env"}},          // (*sim.Env).Handle(h, fn): fn runs wherever h is woken
	"GaugeFunc":   {{arg: 1, pkg: "metrics", typ: "Registry"}}, // (*metrics.Registry).GaugeFunc(name, fn, labels...)
	"CounterFunc": {{arg: 1, pkg: "metrics", typ: "Registry"}}, // (*metrics.Registry).CounterFunc(name, fn, labels...)
}

// procTakingNonBlocking lists, by method name, the sim types whose
// method takes a *sim.Proc without parking anyone: it starts a process
// on caller-owned storage, or makes, wakes or enrolls a callback
// handle. Such a call passes a *sim.Proc legally from scheduler
// context.
var procTakingNonBlocking = map[string][]string{
	"Start":   {"Env"},
	"StartAt": {"Env"},
	"Handle":  {"Env"},
	"Wake":    {"Env"},
	"Enroll":  {"Signal", "SharedLink"},
}

// takesProcNonBlocking reports whether call is one of
// procTakingNonBlocking.
func takesProcNonBlocking(m *Module, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv := m.typeOf(sel.X)
	for _, typ := range procTakingNonBlocking[sel.Sel.Name] {
		if isSimNamed(recv, typ) {
			return true
		}
	}
	return false
}

// inlineCallbackArg resolves a call to a registered inline-callback
// entry point, whose receiver must be the named type the entry point
// belongs to, and returns the index of its callback argument.
func inlineCallbackArg(m *Module, sel *ast.SelectorExpr, call *ast.CallExpr) (int, bool) {
	recv := m.typeOf(sel.X)
	for _, c := range inlineCallbackMethods[sel.Sel.Name] {
		if c.arg < len(call.Args) && isNamed(recv, c.pkg, c.typ) {
			return c.arg, true
		}
	}
	return 0, false
}

// isEnvGo reports whether sel is (*sim.Env).Go, whose function literal
// runs as a fresh process where blocking is legal.
func isEnvGo(m *Module, sel *ast.SelectorExpr) bool {
	return sel.Sel.Name == "Go" && isSimNamed(m.typeOf(sel.X), "Env")
}

func runParkPath(f *File) []Finding {
	g := f.Module.graph()
	var findings []Finding
	ast.Inspect(f.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		idx, ok := inlineCallbackArg(f.Module, sel, call)
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
		chain := g.blocks.chain(res.node)
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

// checkCallbackCalls walks one callback literal, reports every call
// that blocks directly, and asks the call graph of every other call
// whether the callee can reach a blocking construct.
func checkCallbackCalls(g *callGraph, f *File, entry string, lit *ast.FuncLit) []Finding {
	var findings []Finding
	m := f.Module
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if isEnvGo(m, sel) {
				return false // fresh process context: blocking is legal below here
			}
			if idx, ok := inlineCallbackArg(m, sel, call); ok {
				if _, ok := call.Args[idx].(*ast.FuncLit); ok {
					return false // a nested inline callback is scanned on its own
				}
			}
		}
		if site, direct := blockingCallSite(m, call); direct {
			if site.passesProc {
				findings = append(findings, f.finding("parkpath", call.Pos(),
					"call passes a *sim.Proc inside a %s callback; blocking APIs like this one park "+
						"the scheduler goroutine and deadlock the simulation — spawn a process with "+
						"(*sim.Env).Go instead", entry))
			} else {
				findings = append(findings, f.finding("parkpath", call.Pos(),
					"%s inside a %s callback parks on the scheduler goroutine and deadlocks "+
						"the simulation; spawn a process with (*sim.Env).Go instead", site.name, entry))
			}
			return true
		}
		for _, res := range g.resolve(call) {
			chain := g.blocks.chain(res.node)
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

// isNamed reports whether t (or its pointee) is the named type
// <pkg>.<name> — matched by type and package name so the fixture
// module and the real module both qualify.
func isNamed(t types.Type, pkg, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == pkg
}

// isSimNamed reports whether t (or its pointee) is sim.<name>.
func isSimNamed(t types.Type, name string) bool { return isNamed(t, "sim", name) }

// isSimProcPtr reports whether t is *sim.Proc.
func isSimProcPtr(t types.Type) bool {
	if _, ok := t.(*types.Pointer); !ok {
		return false
	}
	return isSimNamed(t, "Proc")
}
