package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
)

// typecheck resolves types for the non-test files of every package, in
// dependency order, and returns the first type error. Test files are
// not checked — every analyzer that needs type information excludes
// them by scope anyway.
func (m *Module) typecheck() error {
	byPath := make(map[string]*Package, len(m.Pkgs))
	for _, pkg := range m.Pkgs {
		byPath[pkg.ImportPath] = pkg
	}
	imp := &moduleImporter{
		module: byPath,
		std:    importer.Default(),
		srcFor: func() types.Importer { return importer.ForCompiler(m.Fset, "source", nil) },
	}
	cfg := &types.Config{
		Importer:         imp,
		FakeImportC:      true,
		IgnoreFuncBodies: false,
	}
	checked := make(map[*Package]bool)
	var check func(pkg *Package) error
	check = func(pkg *Package) error {
		if checked[pkg] {
			return nil
		}
		checked[pkg] = true // pre-mark: an import cycle fails in the importer, not here
		for _, dep := range pkg.localDeps {
			if d := byPath[dep]; d != nil {
				if err := check(d); err != nil {
					return err
				}
			}
		}
		var files []*ast.File
		for _, f := range pkg.Files {
			if !f.IsTest() {
				files = append(files, f.AST)
			}
		}
		if len(files) == 0 {
			return nil
		}
		var err error
		pkg.Types, err = cfg.Check(pkg.ImportPath, m.Fset, files, m.Info)
		return err
	}
	for _, pkg := range m.Pkgs {
		if err := check(pkg); err != nil {
			return err
		}
	}
	return nil
}

// moduleImporter resolves module-local packages from the in-memory
// build and everything else from the toolchain: compiled export data
// when available, falling back to type-checking the dependency from
// source under GOROOT.
type moduleImporter struct {
	module map[string]*Package
	std    types.Importer
	srcFor func() types.Importer
	src    types.Importer
	cache  map[string]*types.Package
}

func (imp *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := imp.module[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("module package %s not yet checked", path)
		}
		return pkg.Types, nil
	}
	if cached, ok := imp.cache[path]; ok {
		return cached, nil
	}
	p, err := imp.std.Import(path)
	if err != nil {
		if imp.src == nil {
			imp.src = imp.srcFor()
		}
		p, err = imp.src.Import(path)
	}
	if err != nil {
		return nil, err
	}
	if imp.cache == nil {
		imp.cache = make(map[string]*types.Package)
	}
	imp.cache[path] = p
	return p, nil
}

// typeOf returns the resolved type of an expression, or nil when the
// checker recorded none (test files are not type-checked).
func (m *Module) typeOf(e ast.Expr) types.Type {
	if tv, ok := m.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj, ok := m.Info.Uses[id]; ok && obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// objectOf returns the object an identifier denotes, or nil.
func (m *Module) objectOf(id *ast.Ident) types.Object {
	if obj, ok := m.Info.Uses[id]; ok {
		return obj
	}
	return m.Info.Defs[id]
}

// posWithin reports whether pos falls inside the source range of node.
func posWithin(pos token.Pos, node ast.Node) bool {
	return node != nil && pos >= node.Pos() && pos <= node.End()
}
