package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpanLeak flags trace spans that are begun on some path but not ended
// on every path out of the function. A leaked span never emits its
// KindSpanEnd event, so the trace stream — and with it the SHA-256
// replay fingerprint and every per-stage latency summary — silently
// diverges from the run's real shape; worse, whether the leak happens
// can depend on which branch a fault lands on, turning one missed End
// into a trace-hash heisenbug.
//
// The analysis is flow-sensitive over the AST and deliberately
// conservative in the "assume handled" direction everywhere the span
// value escapes the function's own control: a span that is returned,
// stored (p.SetSpan, a struct field), passed to another function, or
// captured by a function literal (the deferred-closure and
// env.Schedule(d, func(){ t.End(...) }) idioms) is considered handled
// from that statement on. What it refuses to accept is a path that
// reaches a return — or falls off the end of the function — while the
// span value is still confined to a local variable that nothing has
// ended.
var SpanLeak = &Analyzer{
	Name: "spanleak",
	Doc:  "flag trace spans begun on a path but not ended on every return path",
	Applies: func(f *File) bool {
		return !f.IsTest() && f.In("internal")
	},
	Run: runSpanLeak,
}

func runSpanLeak(f *File) []Finding {
	var findings []Finding
	// Every function-like body is analyzed independently: spans begun
	// inside a closure must be closed (or escape) within that closure.
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				findings = append(findings, checkSpanBodies(f, fn.Body)...)
			}
		case *ast.FuncLit:
			findings = append(findings, checkSpanBodies(f, fn.Body)...)
		}
		return true
	})
	return findings
}

// checkSpanBodies finds span-begin assignments that are direct
// statements of body (at any block depth, but not inside nested
// function literals — those are analyzed on their own) and runs the
// path check for each.
func checkSpanBodies(f *File, body *ast.BlockStmt) []Finding {
	var findings []Finding
	m := f.Module
	var scanStmts func(list []ast.Stmt)
	var scanStmt func(stmt ast.Stmt)
	scanStmt = func(stmt ast.Stmt) {
		switch st := stmt.(type) {
		case *ast.BlockStmt:
			scanStmts(st.List)
		case *ast.IfStmt:
			scanStmts(st.Body.List)
			if st.Else != nil {
				scanStmt(st.Else)
			}
		case *ast.ForStmt:
			scanStmts(st.Body.List)
		case *ast.RangeStmt:
			scanStmts(st.Body.List)
		case *ast.SwitchStmt:
			scanClauses(scanStmts, st.Body.List)
		case *ast.TypeSwitchStmt:
			scanClauses(scanStmts, st.Body.List)
		case *ast.SelectStmt:
			scanClauses(scanStmts, st.Body.List)
		case *ast.LabeledStmt:
			scanStmt(st.Stmt)
		}
	}
	scanStmts = func(list []ast.Stmt) {
		for i, stmt := range list {
			if as, ok := stmt.(*ast.AssignStmt); ok {
				if obj := spanBeginTarget(m, as); obj != nil {
					if fd := checkSpanPaths(f, obj, as, list[i+1:]); fd != nil {
						findings = append(findings, *fd)
					}
				}
				continue
			}
			scanStmt(stmt)
		}
	}
	scanStmts(body.List)
	return findings
}

// scanClauses applies fn to the body of each case/comm clause.
func scanClauses(fn func([]ast.Stmt), clauses []ast.Stmt) {
	for _, c := range clauses {
		switch cc := c.(type) {
		case *ast.CaseClause:
			fn(cc.Body)
		case *ast.CommClause:
			fn(cc.Body)
		}
	}
}

// spanBeginTarget reports the object bound by `x := c.Begin(...)` on a
// *trace.Collector, for single-target assignments only.
func spanBeginTarget(m *Module, as *ast.AssignStmt) types.Object {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Begin" {
		return nil
	}
	if !isNamed(m.typeOf(sel.X), "trace", "Collector") {
		return nil
	}
	return m.objectOf(id)
}

// checkSpanPaths walks the statements after the Begin assignment and
// reports a finding (anchored at the Begin, so one suppression line
// covers it) if some path exits with the span still open. "Handled"
// at a statement means the statement references the span variable at
// all — an End call, a defer, an escape, a closure capture; the check
// is purely about *reaching an exit with no reference on the path*.
func checkSpanPaths(f *File, span types.Object, begin *ast.AssignStmt, rest []ast.Stmt) *Finding {
	leak := spanScan{f: f, span: span}
	covered := leak.scanList(rest, false)
	if !covered && leak.leakPos == token.NoPos {
		// Fell off the end of the enclosing block with the span open.
		leak.leakPos = begin.End()
	}
	if leak.leakPos == token.NoPos {
		return nil
	}
	_, line, _ := f.Pos(leak.leakPos)
	fd := f.finding("spanleak", begin.Pos(),
		"span %q is begun here but not ended on every path (open at line %d); "+
			"a leaked span never emits its end event, silently corrupting the trace "+
			"hash — End it on all paths, defer the End, or hand the span off",
		span.Name(), line)
	return &fd
}

// spanScan is the per-span path walker. leakPos records the first exit
// reached with the span open (NoPos = none found yet).
type spanScan struct {
	f       *File
	span    types.Object
	leakPos token.Pos
}

// scanList walks one statement list with the given entry coverage and
// returns whether the span is covered at fall-through.
func (s *spanScan) scanList(list []ast.Stmt, covered bool) bool {
	for _, stmt := range list {
		covered = s.scanStmt(stmt, covered)
	}
	return covered
}

// scanStmt processes one statement, recording leaks at uncovered
// returns, and returns the coverage state after it.
func (s *spanScan) scanStmt(stmt ast.Stmt, covered bool) bool {
	switch st := stmt.(type) {
	case *ast.ReturnStmt:
		if s.uses(st) {
			return true // the span is returned: handed off
		}
		if !covered {
			s.leak(st.Pos())
		}
		return covered
	case *ast.IfStmt:
		cond := covered || s.usesExpr(st.Cond) || (st.Init != nil && s.uses(st.Init))
		thenCov := s.scanList(st.Body.List, cond)
		elseCov := cond
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			elseCov = s.scanList(e.List, cond)
		case *ast.IfStmt:
			elseCov = s.scanStmt(e, cond)
		case nil:
			elseCov = cond
		}
		// A branch that never falls through (ends in return/panic) was
		// checked internally; coverage of the fall-through is the meet
		// of the branches that do fall through. Treating a terminating
		// branch as covered keeps the meet simple and errs toward the
		// happy path being checked by the other branch.
		if terminates(st.Body) {
			thenCov = true
		}
		if eb, ok := st.Else.(*ast.BlockStmt); ok && terminates(eb) {
			elseCov = true
		}
		return thenCov && elseCov
	case *ast.ForStmt:
		bodyCov := s.scanList(st.Body.List, covered)
		return covered || (bodyCov && s.usesNode(st.Body))
	case *ast.RangeStmt:
		bodyCov := s.scanList(st.Body.List, covered)
		return covered || (bodyCov && s.usesNode(st.Body))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return s.scanBranches(stmt, covered)
	case *ast.BlockStmt:
		return s.scanList(st.List, covered)
	case *ast.DeferStmt:
		if s.uses(st) {
			return true // deferred End/closure covers every later exit
		}
		return covered
	case *ast.LabeledStmt:
		return s.scanStmt(st.Stmt, covered)
	default:
		// Any other statement that references the span — an End call,
		// an escape into another call, a closure capture, a store —
		// covers the path from here on.
		if s.uses(stmt) {
			return true
		}
		return covered
	}
}

// scanBranches handles switch/select: each branch is checked with the
// entry state; fall-through is covered only when every branch covers
// and (for switches) a default branch exists.
func (s *spanScan) scanBranches(stmt ast.Stmt, covered bool) bool {
	var clauses []ast.Stmt
	hasDefault := false
	switch st := stmt.(type) {
	case *ast.SwitchStmt:
		clauses = st.Body.List
	case *ast.TypeSwitchStmt:
		clauses = st.Body.List
	case *ast.SelectStmt:
		clauses = st.Body.List
	}
	all := true
	for _, c := range clauses {
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			body = cc.Body
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			body = cc.Body
			if cc.Comm == nil {
				hasDefault = true
			}
		}
		if !s.scanList(body, covered) {
			all = false
		}
	}
	if _, isSelect := stmt.(*ast.SelectStmt); isSelect {
		hasDefault = true // a select blocks until some case runs
	}
	return covered || (all && hasDefault && len(clauses) > 0)
}

// leak records the first uncovered exit.
func (s *spanScan) leak(pos token.Pos) {
	if s.leakPos == token.NoPos {
		s.leakPos = pos
	}
}

func (s *spanScan) uses(n ast.Node) bool     { return s.usesNode(n) }
func (s *spanScan) usesExpr(e ast.Expr) bool { return e != nil && s.usesNode(e) }

// usesNode reports whether the subtree references the span object.
func (s *spanScan) usesNode(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if id, ok := x.(*ast.Ident); ok {
			if s.f.Module.objectOf(id) == s.span {
				found = true
			}
		}
		return !found
	})
	return found
}

// terminates reports whether a block always transfers control out
// (ends in return, panic, or a terminating statement) — a syntactic
// approximation of go/types' terminating-statement rules.
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return true // break/continue/goto leave the block
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
