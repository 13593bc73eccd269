package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the conservative static call graph the whole-program
// analyzers (parkpath, selectnondet) run over. The graph is computed
// once per Module, from the same type information the per-file
// analyzers use, and degrades gracefully: a package that failed to
// type-check simply contributes no nodes, so its functions are neither
// sources nor targets of edges.
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
//     must not miss anything has to treat those by other means (the
//     inline-callback scanners do).
//
// Every edge remembers whether its call site sits inside a detached
// execution context: the body of a raw go statement, or a function
// literal handed to (*sim.Env).Go or (*sim.Env).Schedule. Code in
// those literals does not run
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
	// blockSites are direct blocking constructs (a blocking *sim.Proc
	// method, or any call passing a *sim.Proc) outside detached
	// contexts, in source order.
	blockSites []blockSite
	// spawnSites are raw go statements in the body that are not waived
	// by an //sdflint:allow rawgo directive (waived ones are approved
	// worker pools), in source order.
	spawnSites []token.Pos
}

// callEdge is one resolved call site.
type callEdge struct {
	callee   *funcNode
	pos      token.Pos
	detached bool // call site runs in a detached context (go stmt / Env.Go / inline callback)
	iface    bool // resolved conservatively through an interface method
}

// blockSite is one direct blocking construct inside a function body.
type blockSite struct {
	pos  token.Pos
	desc string // e.g. "Proc.Wait" or "Resource.Acquire (takes *sim.Proc)"
}

// callGraph is the whole-module graph, memoized on the Module.
type callGraph struct {
	nodes  map[*types.Func]*funcNode
	order  []*funcNode // insertion order: packages sorted, files sorted, decls in source order
	module *Module

	blockMemo  map[*funcNode][]chainStep
	blockState map[*funcNode]int
	spawnMemo  map[*funcNode][]chainStep
	spawnState map[*funcNode]int
}

// graph returns the module's call graph, building it on first use.
func (m *Module) graph() *callGraph {
	if m.cg == nil {
		m.cg = buildCallGraph(m)
	}
	return m.cg
}

func buildCallGraph(m *Module) *callGraph {
	g := &callGraph{nodes: make(map[*types.Func]*funcNode), module: m}
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
				obj, _ := m.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue // package did not type-check
				}
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

// walkBody fills in n.edges, n.blockSites and n.spawnSites.
func (g *callGraph) walkBody(n *funcNode) {
	rawgoWaived := directiveLines(n.file, "rawgo")
	var walk func(node ast.Node, detached bool)
	walk = func(node ast.Node, detached bool) {
		ast.Inspect(node, func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.GoStmt:
				_, line, _ := n.file.Pos(s.Pos())
				if d := rawgoWaived[line]; d != nil {
					// The waiver is consumed even outside rawgo's lexical
					// scope, where no rawgo finding exists to consume it:
					// it is what keeps this spawn out of selectnondet's
					// chains, so it is not stale.
					d.used = true
				} else {
					n.spawnSites = append(n.spawnSites, s.Pos())
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
		if sel.Sel.Name == "Go" {
			if recv := m.typeOf(sel.X); recv == nil || isSimNamed(recv, "Env") {
				detachIdx = 1 // (*sim.Env).Go(name, fn)
			}
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
	if !detached {
		if site, ok := blockingCallSite(m, call); ok {
			n.blockSites = append(n.blockSites, site)
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
			return blockSite{pos: call.Pos(), desc: "Proc." + sel.Sel.Name}, true
		}
	}
	if takesProcNonBlocking(m, call) {
		return blockSite{}, false
	}
	for _, arg := range call.Args {
		if t := m.typeOf(arg); t != nil && isSimProcPtr(t) {
			return blockSite{pos: call.Pos(), desc: callDesc(call) + " (takes *sim.Proc)"}, true
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

// blockChain returns a sample call chain from n to a direct blocking
// construct through non-detached edges, or nil if no such path exists.
// The result is memoized and deterministic: edges are explored in
// source order.
func (g *callGraph) blockChain(n *funcNode) []chainStep {
	if g.blockMemo == nil {
		g.blockMemo = make(map[*funcNode][]chainStep)
		g.blockState = make(map[*funcNode]int)
	}
	return g.blockChainVisit(n)
}

const (
	visitIdle = iota
	visitActive
	visitDone
)

func (g *callGraph) blockChainVisit(n *funcNode) []chainStep {
	if n.file.In("internal/sim") {
		// The scheduler's own bodies pass *sim.Proc around constantly —
		// to wake processes, not to park them. Blocking enters sim only
		// through call sites outside it (a Proc method, a call passing
		// the caller's own Proc), and those are flagged in the caller.
		return nil
	}
	switch g.blockState[n] {
	case visitActive:
		return nil // cycle: resolved by the outer frame
	case visitDone:
		return g.blockMemo[n]
	}
	g.blockState[n] = visitActive
	var chain []chainStep
	if len(n.blockSites) > 0 {
		chain = []chainStep{{name: n.blockSites[0].desc, pos: n.blockSites[0].pos}}
	} else {
		for _, e := range n.edges {
			if e.detached {
				continue
			}
			if sub := g.blockChainVisit(e.callee); sub != nil {
				chain = append([]chainStep{{name: funcName(e.callee.obj), pos: e.pos}}, sub...)
				break
			}
		}
	}
	g.blockState[n] = visitDone
	g.blockMemo[n] = chain
	return chain
}

// spawnChain returns a sample call chain from n to an unwaived raw go
// statement, through any edges, skipping internal/sim (the one place
// the primitive is the deterministic implementation). Nil if none.
func (g *callGraph) spawnChain(n *funcNode) []chainStep {
	if g.spawnMemo == nil {
		g.spawnMemo = make(map[*funcNode][]chainStep)
		g.spawnState = make(map[*funcNode]int)
	}
	return g.spawnChainVisit(n)
}

func (g *callGraph) spawnChainVisit(n *funcNode) []chainStep {
	if n.file.In("internal/sim") {
		return nil
	}
	switch g.spawnState[n] {
	case visitActive:
		return nil
	case visitDone:
		return g.spawnMemo[n]
	}
	g.spawnState[n] = visitActive
	var chain []chainStep
	if len(n.spawnSites) > 0 {
		chain = []chainStep{{name: "go statement", pos: n.spawnSites[0]}}
	} else {
		for _, e := range n.edges {
			if sub := g.spawnChainVisit(e.callee); sub != nil {
				chain = append([]chainStep{{name: funcName(e.callee.obj), pos: e.pos}}, sub...)
				break
			}
		}
	}
	g.spawnState[n] = visitDone
	g.spawnMemo[n] = chain
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

// directiveLines returns the lines in f covered by a valid
// //sdflint:allow directive for the named analyzer (the directive's
// own line and the line below, matching suppression scope), mapped to
// the directive so callers can mark it used.
func directiveLines(f *File, analyzer string) map[int]*directive {
	lines := make(map[int]*directive)
	for _, d := range fileDirectives(f) {
		if d.d != nil && d.d.Analyzer == analyzer {
			lines[d.line] = d
			lines[d.line+1] = d
		}
	}
	return lines
}
