package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// errDropPkgSuffixes names the packages whose error results must not
// be discarded (module-relative): the crash-consistency-critical path
// — the CCDB journal/WAL and storage path, raw NAND media
// persistence, the flash-channel recovery machinery, and the device
// layer that fronts them — where the whole acked==journaled contract
// (DESIGN.md "Crash consistency & recovery") flows through the error
// results (a dropped error means an unacknowledged-but-assumed write,
// a torn block treated as durable, or a recovery scan that silently
// lost state); and the metrics exporters, whose write errors are the
// only signal that an export is truncated — a half-written snapshot
// with a clean exit would silently break the byte-identity contract.
var errDropPkgSuffixes = []string{
	"internal/ccdb",
	"internal/nand",
	"internal/flashchan",
	"internal/core",
	"internal/metrics",
}

// ErrDrop flags discarded error results from the critical packages: a
// call used as a bare statement, spawned via go/defer, or assigned
// with the error position blanked (`_ =`, `v, _ :=`). Errors that are
// bound to a variable are out of scope — whether the variable is then
// handled sensibly is a judgment the reviewer makes, not this tool.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "forbid discarding error results from ccdb/nand/flashchan/core/metrics persistence and export APIs",
	Applies: func(f *File) bool {
		return !f.IsTest() && f.In("internal")
	},
	Run: runErrDrop,
}

func runErrDrop(f *File) []Finding {
	var findings []Finding
	m := f.Module
	report := func(call *ast.CallExpr, how string) {
		fn := criticalErrFunc(m, call)
		if fn == nil {
			return
		}
		findings = append(findings, f.finding("errdrop", call.Pos(),
			"%s discards the error from %s.%s; the crash-consistency contract "+
				"(acked == journaled, DESIGN.md §11) depends on these errors being "+
				"handled — check it, or waive with //sdflint:allow errdrop <reason>",
			how, fn.Pkg().Name(), fn.Name()))
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				// Keep descending: function literals in the call's
				// arguments carry statements of their own.
				report(call, "call statement")
			}
		case *ast.GoStmt:
			report(st.Call, "go statement")
		case *ast.DeferStmt:
			report(st.Call, "defer statement")
		case *ast.AssignStmt:
			findings = append(findings, checkErrAssign(f, st)...)
		}
		return true
	})
	return findings
}

// checkErrAssign flags assignments that blank the error position of a
// critical call: `_ = f()`, `v, _ := g()`. In the multi-value form
// (one call, results spread over the LHS) the error is the last LHS
// position; in the parallel form, call i's is position i.
func checkErrAssign(f *File, as *ast.AssignStmt) []Finding {
	var findings []Finding
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		pos := i
		if len(as.Rhs) == 1 {
			pos = len(as.Lhs) - 1
		}
		if pos >= len(as.Lhs) {
			continue
		}
		if id, ok := as.Lhs[pos].(*ast.Ident); !ok || id.Name != "_" {
			continue
		}
		if fn := criticalErrFunc(f.Module, call); fn != nil {
			findings = append(findings, f.finding("errdrop", call.Pos(),
				"assignment blanks the error from %s.%s; the crash-consistency contract "+
					"(acked == journaled, DESIGN.md §11) depends on these errors being "+
					"handled — bind and check it, or waive with //sdflint:allow errdrop <reason>",
				fn.Pkg().Name(), fn.Name()))
		}
	}
	return findings
}

// criticalErrFunc resolves a call to a function in one of the critical
// packages whose final result is an error, or nil.
func criticalErrFunc(m *Module, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ = m.objectOf(fun).(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := m.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, _ = sel.Obj().(*types.Func)
		} else {
			fn, _ = m.objectOf(fun.Sel).(*types.Func)
		}
	}
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	path := fn.Pkg().Path()
	critical := false
	for _, suffix := range errDropPkgSuffixes {
		if strings.HasSuffix(path, suffix) {
			critical = true
			break
		}
	}
	if !critical {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if named, ok := last.(*types.Named); !ok || named.Obj().Name() != "error" || named.Obj().Pkg() != nil {
		return nil
	}
	return fn
}
