package sdf

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
