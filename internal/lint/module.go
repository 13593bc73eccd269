package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Module is one parsed Go module: every buildable package under the
// root, excluding vendor/, testdata/ and hidden directories.
type Module struct {
	Root string // absolute filesystem path of the module root
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // sorted by directory
	// Info aggregates type information for the non-test files of all
	// packages; test files are not type-checked.
	Info *types.Info

	cg *callGraph // memoized whole-program call graph
}

// Package is the set of files in one directory. External test packages
// (package foo_test) live in the same Package as foo: analyzers scope
// by file, not by package name.
type Package struct {
	Dir        string // slash-separated, relative to module root ("" = root)
	Name       string // package name of the non-test files
	ImportPath string
	Files      []*File // sorted by path; includes _test.go files
	Types      *types.Package
	localDeps  []string // module-local import paths of non-test files
}

// File is one parsed source file plus its position in the module.
type File struct {
	Module *Module
	Pkg    *Package
	AST    *ast.File
	Path   string // slash-separated, relative to module root

	dirs []*directive // memoized sdflint:allow comments, see suppressions
	sup  suppressionSet
}

// IsTest reports whether the file is a _test.go file.
func (f *File) IsTest() bool { return strings.HasSuffix(f.Path, "_test.go") }

// In reports whether the file lives under the given module-root-relative
// directory (e.g. "internal" or "cmd").
func (f *File) In(dir string) bool {
	return f.Path == dir || strings.HasPrefix(f.Path, dir+"/")
}

// Pos converts a token position into a Finding-style location with a
// module-relative path.
func (f *File) Pos(p token.Pos) (file string, line, col int) {
	pos := f.Module.Fset.Position(p)
	return f.Path, pos.Line, pos.Column
}

// finding builds a Finding for the named analyzer at position p.
func (f *File) finding(analyzer string, p token.Pos, format string, args ...any) Finding {
	file, line, col := f.Pos(p)
	return Finding{File: file, Line: line, Col: col, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)}
}

// importAliases returns the identifiers under which pkgPath is imported
// in this file ("rand" for `import "math/rand"`, plus any aliases).
func (f *File) importAliases(pkgPath string) map[string]bool {
	aliases := make(map[string]bool)
	for _, imp := range f.AST.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != pkgPath {
			continue
		}
		switch {
		case imp.Name == nil:
			aliases[path.Base(p)] = true
		case imp.Name.Name == "_" || imp.Name.Name == ".":
			// blank imports bind nothing; dot imports are rejected by
			// the style of this repo and not tracked.
		default:
			aliases[imp.Name.Name] = true
		}
	}
	return aliases
}

// eachPkgRef calls fn for every qualified reference pkg.Sel where pkg
// is bound to pkgPath in this file. In a type-checked file the receiver
// is verified to be the package (not a shadowing variable); in a test
// file the match is purely syntactic.
func (f *File) eachPkgRef(pkgPath string, fn func(sel *ast.SelectorExpr)) {
	aliases := f.importAliases(pkgPath)
	if len(aliases) == 0 {
		return
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || !aliases[id.Name] {
			return true
		}
		if obj, known := f.Module.Info.Uses[id]; known {
			pn, isPkg := obj.(*types.PkgName)
			if !isPkg || pn.Imported().Path() != pkgPath {
				return true
			}
		}
		fn(sel)
		return true
	})
}

// LoadModule parses and type-checks every package under root (which
// must contain go.mod). The first parse or type error aborts the load:
// a tree that does not compile is not checked at all.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root: root,
		Path: modPath,
		Fset: token.NewFileSet(),
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}

	dirs, err := goSourceDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		pkg, err := m.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			m.Pkgs = append(m.Pkgs, pkg)
		}
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Dir < m.Pkgs[j].Dir })
	if err := m.typecheck(); err != nil {
		return nil, err
	}
	return m, nil
}

// goSourceDirs returns every directory under root that may hold Go
// source, relative to root, skipping testdata, vendor and hidden trees.
func goSourceDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		dirs = append(dirs, filepath.ToSlash(rel))
		return nil
	})
	return dirs, err
}

// parseDir parses the .go files of one directory into a Package, or
// returns nil if the directory holds no Go source.
func (m *Module) parseDir(dir string) (*Package, error) {
	abs := filepath.Join(m.Root, filepath.FromSlash(dir))
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	importPath := m.Path
	if dir != "." {
		importPath = m.Path + "/" + dir
	}
	pkg := &Package{Dir: dir, ImportPath: importPath}
	if dir == "." {
		pkg.Dir = ""
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		full := filepath.Join(abs, name)
		rel := name
		if dir != "." {
			rel = dir + "/" + name
		}
		astFile, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		f := &File{Module: m, Pkg: pkg, AST: astFile, Path: rel}
		pkg.Files = append(pkg.Files, f)
		if !f.IsTest() {
			if pkg.Name == "" {
				pkg.Name = astFile.Name.Name
			}
			for _, imp := range astFile.Imports {
				if p, err := strconv.Unquote(imp.Path.Value); err == nil {
					if p == m.Path || strings.HasPrefix(p, m.Path+"/") {
						pkg.localDeps = append(pkg.localDeps, p)
					}
				}
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	sort.Slice(pkg.Files, func(i, j int) bool { return pkg.Files[i].Path < pkg.Files[j].Path })
	return pkg, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("%s: no module path", gomod)
}
