package sdf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// headingRE matches a numbered DESIGN.md chapter heading.
	headingRE = regexp.MustCompile(`(?m)^## (\d+)\. (.+)$`)
	// sectionRefRE and titleRefRE match the two ways the tree points
	// into DESIGN.md: by chapter number, or by a quoted heading title.
	sectionRefRE = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)`)
	titleRefRE   = regexp.MustCompile(`DESIGN\.md "([^"]+)"`)
	// inventoryPkgRE matches a package path in the inventory table.
	inventoryPkgRE = regexp.MustCompile("`internal/([a-z0-9]+)`")
	// rootDocs are the Markdown files at the root that document this
	// tree; the others there are reference or task material.
	rootDocs = map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true, "ROADMAP.md": true, "CHANGES.md": true}
	// goRunRE matches the package directory of a `go run`; sdfctlRE
	// the command word of an sdfctl command line, after any flags,
	// where the line runs or quotes sdfctl rather than naming its
	// directory.
	goRunRE  = regexp.MustCompile(`go run (?:-\S+ )*\./(\S+)`)
	sdfctlRE = regexp.MustCompile("(?:\\./cmd/|[`(]|^)sdfctl(?:\\s+-\\S+(?:\\s+\\d+)?)*\\s+([a-z]+)")
)

// designChapters returns DESIGN.md's text and its chapter titles by
// number.
func designChapters(t *testing.T) (string, map[string]string) {
	t.Helper()
	buf, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	chapters := make(map[string]string)
	for _, m := range headingRE.FindAllStringSubmatch(string(buf), -1) {
		chapters[m[1]] = m[2]
	}
	return string(buf), chapters
}

// TestDesignReferencesResolve fails when a Go file, a Markdown
// document, the Makefile or a CI file names a DESIGN.md chapter, by
// number or by title, that DESIGN.md does not have. A heading title
// matches a quoted title that it begins with ("Kernel round 2" names
// "Kernel round 2 (...)").
func TestDesignReferencesResolve(t *testing.T) {
	_, chapters := designChapters(t)
	var titles []string
	for _, title := range chapters {
		titles = append(titles, title)
	}
	refs := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Hidden directories other than CI, and build and run
			// outputs, hold no sources.
			name := d.Name()
			if (strings.HasPrefix(name, ".") && name != "." && name != ".github") || name == "verify-out" || name == "out" {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		ci := strings.HasPrefix(filepath.ToSlash(path), ".github/") && (ext == ".yml" || ext == ".yaml")
		doc := ext == ".md" && (filepath.Dir(path) != "." || rootDocs[path])
		if ext != ".go" && !doc && d.Name() != "Makefile" && !ci {
			return nil
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(buf), "\n") {
			for _, m := range sectionRefRE.FindAllStringSubmatch(line, -1) {
				refs++
				if _, ok := chapters[m[1]]; !ok {
					t.Errorf("%s:%d: %s names no DESIGN.md chapter", path, i+1, m[0])
				}
			}
			for _, m := range titleRefRE.FindAllStringSubmatch(line, -1) {
				refs++
				found := false
				for _, title := range titles {
					found = found || strings.HasPrefix(title, m[1])
				}
				if !found {
					t.Errorf("%s:%d: %s names no DESIGN.md heading", path, i+1, m[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Fatal("found no DESIGN.md references at all; the patterns have drifted from the tree")
	}
}

// TestDesignInventoryListsEveryPackage fails when a package under
// internal/ is missing from DESIGN §3's system inventory.
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	text, chapters := designChapters(t)
	if _, ok := chapters["3"]; !ok {
		t.Fatal("DESIGN.md has no chapter 3 (system inventory)")
	}
	start := strings.Index(text, "\n## 3. ")
	end := strings.Index(text[start+1:], "\n## ")
	if end < 0 {
		end = len(text) - start - 1
	}
	listed := make(map[string]bool)
	for _, m := range inventoryPkgRE.FindAllStringSubmatch(text[start:start+1+end], -1) {
		listed[m[1]] = true
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		goFiles, err := filepath.Glob(filepath.Join("internal", e.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(goFiles) > 0 && !listed[e.Name()] {
			t.Errorf("internal/%s is missing from DESIGN §3's inventory", e.Name())
		}
	}
}

// TestDocCommandsResolve fails when README.md, DESIGN.md or
// EXPERIMENTS.md tells the reader to `go run` a directory that holds
// no main package, or to run an sdfctl command that cmd/sdfctl's
// command function does not dispatch.
func TestDocCommandsResolve(t *testing.T) {
	dispatched := sdfctlCommands(t)
	refs := 0
	for _, path := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(buf), "\n") {
			for _, m := range goRunRE.FindAllStringSubmatch(line, -1) {
				refs++
				if !isMainPackage(t, m[1]) {
					t.Errorf("%s:%d: go run ./%s names no main package", path, i+1, m[1])
				}
			}
			for _, m := range sdfctlRE.FindAllStringSubmatch(line, -1) {
				refs++
				if !dispatched[m[1]] {
					t.Errorf("%s:%d: sdfctl %s is not an sdfctl command", path, i+1, m[1])
				}
			}
		}
	}
	if refs == 0 {
		t.Fatal("found no go run or sdfctl command lines at all; the patterns have drifted from the docs")
	}
}

// sdfctlCommands returns the command words cmd/sdfctl dispatches: the
// string labels of the switch cases in its command function.
func sdfctlCommands(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", "sdfctl", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	words := make(map[string]bool)
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "command" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						word, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						words[word] = true
					}
				}
			}
			return true
		})
	}
	if len(words) == 0 {
		t.Fatal("cmd/sdfctl/main.go has no command function with string cases")
	}
	return words
}

// isMainPackage reports whether dir holds a non-test Go file of
// package main.
func isMainPackage(t *testing.T, dir string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(filepath.FromSlash(dir), "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == "main" {
			return true
		}
	}
	return false
}
