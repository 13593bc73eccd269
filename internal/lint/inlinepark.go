package lint

import (
	"go/ast"
	"go/types"
)

// InlinePark flags blocking process calls inside inline scheduler
// callbacks. The kernel's fast path ((*sim.Env).Schedule) runs the
// supplied function directly on the scheduler goroutine between events: there is no process to park,
// so calling a blocking Proc API from one — Wait, WaitUntil, Await,
// Join, or anything that takes a *sim.Proc such as Acquire, Transfer,
// Occupy or Queue.Get — deadlocks the simulation (see DESIGN.md,
// "Kernel performance"). The metrics registry's callback-backed
// instruments ((*metrics.Registry).GaugeFunc and CounterFunc) carry
// the same contract: the sampler and the exporters invoke those
// callbacks inline — sometimes outside any process, after the run —
// so they must be park-free reads. Spawning a fresh process with
// (*sim.Env).Go from a callback is the legal way to re-enter blocking
// code, so Go literals are not descended into. internal/sim itself is
// exempt: the kernel parks and resumes processes as part of
// implementing them.
var InlinePark = &Analyzer{
	Name: "inlinepark",
	Doc:  "forbid blocking Proc calls inside inline callbacks (Schedule/GaugeFunc/CounterFunc)",
	Applies: func(f *File) bool {
		return !f.IsTest() && f.In("internal") && !f.In("internal/sim")
	},
	Run: runInlinePark,
}

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
	"GaugeFunc":   {{arg: 1, pkg: "metrics", typ: "Registry"}}, // (*metrics.Registry).GaugeFunc(name, fn, labels...)
	"CounterFunc": {{arg: 1, pkg: "metrics", typ: "Registry"}}, // (*metrics.Registry).CounterFunc(name, fn, labels...)
}

// inlineCallbackArg resolves a call to a registered inline-callback
// entry point and returns the index of its callback argument. With
// type information, the receiver must be the named type the entry
// point belongs to; without it, the name alone matches — a false
// positive is waivable, a missed deadlock is not.
func inlineCallbackArg(m *Module, sel *ast.SelectorExpr, call *ast.CallExpr) (int, bool) {
	cands, ok := inlineCallbackMethods[sel.Sel.Name]
	if !ok {
		return 0, false
	}
	recv := m.typeOf(sel.X)
	for _, c := range cands {
		if c.arg >= len(call.Args) {
			continue
		}
		if recv == nil || isNamed(recv, c.pkg, c.typ) {
			return c.arg, true
		}
	}
	return 0, false
}

func runInlinePark(f *File) []Finding {
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
		if lit, ok := call.Args[idx].(*ast.FuncLit); ok {
			findings = append(findings, checkInlineCallback(f, sel.Sel.Name, lit)...)
		}
		return true
	})
	return findings
}

// checkInlineCallback walks one callback literal for blocking calls,
// skipping (*sim.Env).Go literals: those bodies run as fresh
// scheduler-owned processes where parking is legal.
func checkInlineCallback(f *File, entry string, lit *ast.FuncLit) []Finding {
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
					return false // new process context: blocking is legal
				}
			}
			if idx, ok := inlineCallbackArg(m, sel, call); ok {
				if _, ok := call.Args[idx].(*ast.FuncLit); ok {
					// A nested inline callback is scanned by the
					// file-level walk; re-scanning it here would
					// duplicate its findings.
					return false
				}
			}
			if blockingProcMethods[sel.Sel.Name] && isSimNamed(m.typeOf(sel.X), "Proc") {
				findings = append(findings, f.finding("inlinepark", call.Pos(),
					"Proc.%s inside a %s callback parks on the scheduler goroutine and deadlocks "+
						"the simulation; spawn a process with (*sim.Env).Go instead", sel.Sel.Name, entry))
				return true
			}
		}
		for _, arg := range call.Args {
			if t := m.typeOf(arg); t != nil && isSimProcPtr(t) {
				findings = append(findings, f.finding("inlinepark", call.Pos(),
					"call passes a *sim.Proc inside a %s callback; blocking APIs like this one park "+
						"the scheduler goroutine and deadlock the simulation — spawn a process with "+
						"(*sim.Env).Go instead", entry))
				break
			}
		}
		return true
	})
	return findings
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
