package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the conservative static call graph the whole-program
// analyzers (parkpath, selectnondet) run over. The graph is computed
// once per Module, from the same type information the other
// analyzers use.
//
// Conservatism, precisely:
//
//   - Direct calls to package-level functions and concrete methods are
//     resolved exactly through go/types.
//   - Calls through an interface method add edges to every module
//     method with the same name whose receiver type implements the
//     interface (class-hierarchy style over-approximation).
//   - Calls through plain function values (parameters, struct fields,
//     closures bound to variables) are not resolved; an analyzer that
//     must not miss anything has to treat those by other means
//     (parkpath reads callback literals directly).
//
// Every edge remembers whether its call site sits inside a detached
// execution context: the body of a raw go statement, or a function
// literal handed to (*sim.Env).Go or to an inline-callback entry point.
// Code in those literals does not run
// synchronously in the enclosing function's process, so path-sensitive
// analyses (parkpath) skip detached edges while whole-program ones
// (selectnondet's goroutine tracking) keep them.

// funcNode is one declared function or method in the module.
type funcNode struct {
	obj  *types.Func
	decl *ast.FuncDecl
	file *File
	// edges lists static call sites in source order.
	edges []callEdge
	// block is the first direct blocking construct (a blocking
	// *sim.Proc method, or any call passing a *sim.Proc) outside
	// detached contexts, or nil.
	block *chainStep
	// spawn is the first raw go statement in the body that is not
	// waived by an //sdflint:allow rawgo directive (waived ones are
	// approved worker pools), or nil.
	spawn *chainStep
}

// callEdge is one resolved call site.
type callEdge struct {
	callee   *funcNode
	pos      token.Pos
	detached bool // call site runs in a detached context (go stmt / Env.Go / inline callback)
	iface    bool // resolved conservatively through an interface method
}

// blockSite is one direct blocking construct: its name (e.g.
// "Proc.Wait" or "Resource.Acquire (takes *sim.Proc)") and position,
// and whether it blocks by passing a *sim.Proc rather than by calling
// a blocking Proc method.
type blockSite struct {
	chainStep
	passesProc bool
}

// callGraph is the whole-module graph, memoized on the Module.
type callGraph struct {
	nodes  map[*types.Func]*funcNode
	order  []*funcNode // insertion order: packages sorted, files sorted, decls in source order
	module *Module

	// blocks finds chains to a blocking construct through non-detached
	// edges; spawns finds chains to an unwaived raw go statement
	// through any edges.
	blocks, spawns *reach
}

// graph returns the module's call graph, building it on first use.
func (m *Module) graph() *callGraph {
	if m.cg == nil {
		m.cg = buildCallGraph(m)
	}
	return m.cg
}

func buildCallGraph(m *Module) *callGraph {
	g := &callGraph{
		nodes:  make(map[*types.Func]*funcNode),
		module: m,
		blocks: newReach(func(n *funcNode) *chainStep { return n.block },
			func(e callEdge) bool { return !e.detached }),
		spawns: newReach(func(n *funcNode) *chainStep { return n.spawn },
			func(callEdge) bool { return true }),
	}
	// Pass 1: create a node per declared function with a body.
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			if f.IsTest() {
				continue // test files are not type-checked
			}
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := m.Info.Defs[fd.Name].(*types.Func)
				n := &funcNode{obj: obj, decl: fd, file: f}
				g.nodes[obj] = n
				g.order = append(g.order, n)
			}
		}
	}
	// Pass 2: walk bodies for edges, block sites, and spawn sites.
	for _, n := range g.order {
		g.walkBody(n)
	}
	return g
}

// walkBody fills in n.edges, n.block and n.spawn.
func (g *callGraph) walkBody(n *funcNode) {
	_, sup := n.file.suppressions()
	var walk func(node ast.Node, detached bool)
	walk = func(node ast.Node, detached bool) {
		ast.Inspect(node, func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.GoStmt:
				_, line, _ := n.file.Pos(s.Pos())
				if d := sup.lookup("rawgo", line); d != nil {
					// The waiver is consumed even outside rawgo's lexical
					// scope, where no rawgo finding exists to consume it:
					// it is what keeps this spawn out of selectnondet's
					// chains, so it is not stale.
					d.used = true
				} else if n.spawn == nil {
					n.spawn = &chainStep{name: "go statement", pos: s.Pos()}
				}
				// The goroutine body is a detached context: record its
				// edges (a spawned goroutine still calls what it calls)
				// but never its blocking constructs.
				walk(s.Call, true)
				return false
			case *ast.CallExpr:
				g.addCall(n, s, detached, walk)
				return false
			}
			return true
		})
	}
	walk(n.decl.Body, false)
}

// addCall records one call expression: its resolved edges, whether it
// blocks directly, and recurses into its arguments with the right
// detachment for callback literals.
func (g *callGraph) addCall(n *funcNode, call *ast.CallExpr, detached bool, walk func(ast.Node, bool)) {
	m := g.module

	// Descend into the function expression and arguments first,
	// marking function literals handed to detaching entry points.
	walk(call.Fun, detached)
	detachIdx := -1
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if idx, ok := inlineCallbackArg(m, sel, call); ok {
			detachIdx = idx
		}
		if isEnvGo(m, sel) {
			detachIdx = 1 // (*sim.Env).Go(name, fn)
		}
	}
	for i, arg := range call.Args {
		if i == detachIdx {
			if lit, ok := arg.(*ast.FuncLit); ok {
				walk(lit.Body, true)
				continue
			}
		}
		walk(arg, detached)
	}

	// Direct blocking constructs, outside detached contexts only.
	if !detached && n.block == nil {
		if site, ok := blockingCallSite(m, call); ok {
			n.block = &site.chainStep
		}
	}

	// Resolve the callee to module nodes.
	for _, res := range g.resolve(call) {
		n.edges = append(n.edges, callEdge{callee: res.node, pos: call.Pos(), detached: detached, iface: res.iface})
	}
}

// blockingCallSite reports whether the call parks the current process:
// a blocking *sim.Proc method, or any call that passes a *sim.Proc.
func blockingCallSite(m *Module, call *ast.CallExpr) (blockSite, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if blockingProcMethods[sel.Sel.Name] && isSimNamed(m.typeOf(sel.X), "Proc") {
			return blockSite{chainStep: chainStep{name: "Proc." + sel.Sel.Name, pos: call.Pos()}}, true
		}
	}
	if takesProcNonBlocking(m, call) {
		return blockSite{}, false
	}
	for _, arg := range call.Args {
		if isSimProcPtr(m.typeOf(arg)) {
			name := callDesc(call) + " (takes *sim.Proc)"
			return blockSite{chainStep: chainStep{name: name, pos: call.Pos()}, passesProc: true}, true
		}
	}
	return blockSite{}, false
}

// callDesc renders a readable name for a call expression's target.
func callDesc(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "call"
}

// resolved is one possible callee of a call site.
type resolved struct {
	node  *funcNode
	iface bool
}

// resolve maps a call expression to its possible module-local callees.
func (g *callGraph) resolve(call *ast.CallExpr) []resolved {
	m := g.module
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := m.objectOf(fun).(*types.Func); ok {
			if n := g.nodes[fn]; n != nil {
				return []resolved{{node: n}}
			}
		}
	case *ast.SelectorExpr:
		// Conversions and package-qualified functions resolve through
		// Uses; concrete and interface methods through Selections.
		if sel, ok := m.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return g.resolveInterface(fn, sel.Recv())
			}
			if n := g.nodes[fn]; n != nil {
				return []resolved{{node: n}}
			}
			return nil
		}
		if fn, ok := m.objectOf(fun.Sel).(*types.Func); ok {
			if n := g.nodes[fn]; n != nil {
				return []resolved{{node: n}}
			}
		}
	}
	return nil
}

// resolveInterface returns every module method with the interface
// method's name whose receiver type implements the interface.
func (g *callGraph) resolveInterface(ifn *types.Func, recv types.Type) []resolved {
	iface, _ := recv.Underlying().(*types.Interface)
	if iface == nil {
		return nil
	}
	var out []resolved
	for _, n := range g.order { // stable: insertion order
		sig, ok := n.obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || n.obj.Name() != ifn.Name() {
			continue
		}
		rt := sig.Recv().Type()
		if types.Implements(rt, iface) {
			out = append(out, resolved{node: n, iface: true})
		} else if _, isPtr := rt.(*types.Pointer); !isPtr && types.Implements(types.NewPointer(rt), iface) {
			out = append(out, resolved{node: n, iface: true})
		}
	}
	return out
}

// chainStep is one hop of an explanation chain.
type chainStep struct {
	name string // function the hop enters, or the blocking construct
	pos  token.Pos
}

// reach is a memoized depth-first search for a sample call chain from
// a function to a site: a function's own site (site), else the first
// edge (in source order) that follow admits and whose callee reaches
// one. internal/sim is never entered — the scheduler's own bodies pass
// *sim.Proc around constantly to wake processes, not to park them, and
// its go statements are the deterministic handoff itself; blocking
// enters sim only through call sites outside it, flagged in the caller.
type reach struct {
	site   func(*funcNode) *chainStep
	follow func(callEdge) bool
	memo   map[*funcNode][]chainStep
	state  map[*funcNode]int
}

func newReach(site func(*funcNode) *chainStep, follow func(callEdge) bool) *reach {
	return &reach{
		site: site, follow: follow,
		memo: make(map[*funcNode][]chainStep), state: make(map[*funcNode]int),
	}
}

const (
	visitIdle = iota
	visitActive
	visitDone
)

// chain returns the sample chain from n, ending in the site itself, or
// nil if no site is reachable. The result is deterministic.
func (r *reach) chain(n *funcNode) []chainStep {
	if n.file.In("internal/sim") {
		return nil
	}
	switch r.state[n] {
	case visitActive:
		return nil // cycle: resolved by the outer frame
	case visitDone:
		return r.memo[n]
	}
	r.state[n] = visitActive
	var chain []chainStep
	if s := r.site(n); s != nil {
		chain = []chainStep{*s}
	} else {
		for _, e := range n.edges {
			if !r.follow(e) {
				continue
			}
			if sub := r.chain(e.callee); sub != nil {
				chain = append([]chainStep{{name: funcName(e.callee.obj), pos: e.pos}}, sub...)
				break
			}
		}
	}
	r.state[n] = visitDone
	r.memo[n] = chain
	return chain
}

// funcName renders a function or method name for chain messages:
// "Pkg.Func" or "(*Type).Method".
func funcName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			if named, ok := p.Elem().(*types.Named); ok {
				return "(*" + named.Obj().Name() + ")." + fn.Name()
			}
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
