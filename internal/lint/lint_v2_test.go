package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden output files")

// TestInlineParkMissesTransitive is the proof the tentpole rests on:
// the per-file inlinepark analyzer reports nothing in the parktrans
// fixture (the blocking is below a call boundary, on a stored handle),
// while parkpath reports every case. If inlinepark ever learns to see
// these, parkpath's dedup rule needs revisiting — this test will say
// so.
func TestInlineParkMissesTransitive(t *testing.T) {
	root := fixtureRoot(t)
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	var file *File
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			if f.Path == "internal/parktrans/parktrans.go" {
				file = f
			}
		}
	}
	if file == nil {
		t.Fatal("fixture internal/parktrans/parktrans.go not loaded")
	}
	if got := InlinePark.Run(file); len(got) != 0 {
		t.Errorf("inlinepark sees the transitive fixture (%v); parkpath's no-duplicate rule is stale", got)
	}
	findings, err := mod.Check([]string{"./internal/parktrans"})
	if err != nil {
		t.Fatal(err)
	}
	park := 0
	for _, f := range findings {
		if f.Analyzer == "parkpath" {
			park++
		}
	}
	if park != 3 {
		t.Errorf("parkpath findings = %d, want 3 (direct chain, interface dispatch, handle body)", park)
	}
}

// TestGoldenOutput pins the -json and -sarif renderings byte for byte
// over a stable fixture package. Regenerate with `go test -run Golden
// -update ./internal/lint` after a deliberate format change.
func TestGoldenOutput(t *testing.T) {
	root := fixtureRoot(t)
	findings, err := Run(root, []string{"./internal/erruse"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		golden string
		render func(*bytes.Buffer) error
	}{
		{"json", "findings.json.golden", func(b *bytes.Buffer) error { return writeJSON(b, findings) }},
		{"sarif", "findings.sarif.golden", func(b *bytes.Buffer) error { return writeSARIF(b, findings) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.render(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.golden)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output drifted from golden file\n got:\n%s\nwant:\n%s", tc.name, buf.Bytes(), want)
			}
		})
	}
}

// writeTree materializes a map of path->source as a module under a
// fresh temp dir and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for p, src := range files {
		full := filepath.Join(root, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestBrokenTreeDegrades checks graceful degradation: a file that
// fails to parse becomes an "sdflint" finding instead of aborting the
// run, and the per-file analyzers keep working on the healthy files.
func TestBrokenTreeDegrades(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.23\n",
		"internal/broken/broken.go": `package broken

func Oops() {
`,
		"internal/ok/ok.go": `package ok

import "time"

func Now() time.Time { return time.Now() }
`,
	})
	findings, err := Run(root, nil)
	if err != nil {
		t.Fatalf("a parse error must degrade, not abort: %v", err)
	}
	var parseErrs, clockErrs int
	for _, f := range findings {
		switch {
		case f.Analyzer == "sdflint" && strings.HasPrefix(f.File, "internal/broken/"):
			parseErrs++
		case f.Analyzer == "nowallclock" && strings.HasPrefix(f.File, "internal/ok/"):
			clockErrs++
		}
	}
	if parseErrs == 0 {
		t.Errorf("missing sdflint parse-error finding: %v", findings)
	}
	if clockErrs == 0 {
		t.Errorf("per-file analyzers must keep working on healthy files: %v", findings)
	}
}

// TestApplyFixes drives -fix end to end: a stale directive is deleted
// (whole line), a dropped critical error is wrapped in a return, and
// the re-check comes back clean.
func TestApplyFixes(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.23\n",
		"internal/ccdb/ccdb.go": `package ccdb

func Sync() error { return nil }
`,
		"internal/use/use.go": `package use

import "tmpmod/internal/ccdb"

//sdflint:allow maporder nothing here iterates anymore
func Flush() error {
	ccdb.Sync()
	return nil
}
`,
	})
	findings, err := Run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	var haveErrdrop, haveStale bool
	for _, f := range findings {
		switch f.Analyzer {
		case "errdrop":
			haveErrdrop = true
		case "stalesuppress":
			haveStale = true
		}
	}
	if !haveErrdrop || !haveStale {
		t.Fatalf("setup findings wrong (errdrop=%v stale=%v): %v", haveErrdrop, haveStale, findings)
	}
	n, err := ApplyFixes(root, findings)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("applied %d fixes, want 2", n)
	}
	data, err := os.ReadFile(filepath.Join(root, "internal", "use", "use.go"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if strings.Contains(got, "sdflint:allow") {
		t.Errorf("stale directive not deleted:\n%s", got)
	}
	if !strings.Contains(got, "if err := ccdb.Sync(); err != nil {\n\t\treturn err\n\t}") {
		t.Errorf("dropped error not wrapped:\n%s", got)
	}
	after, err := Run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 0 {
		t.Errorf("tree not clean after fixes: %v", after)
	}
}

// TestMainOutputModes drives the new flags through the command entry
// point: -json emits a parseable array, -sarif writes a report file,
// and both agree with the text findings on exit status.
func TestMainOutputModes(t *testing.T) {
	root := fixtureRoot(t)
	sarif := filepath.Join(t.TempDir(), "out.sarif")
	var out, errb bytes.Buffer
	if code := Main(root, []string{"-json", "-sarif", sarif, "./internal/erruse"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.HasPrefix(strings.TrimSpace(out.String()), "[") ||
		!strings.Contains(out.String(), `"analyzer": "errdrop"`) {
		t.Errorf("-json output malformed:\n%s", out.String())
	}
	data, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"version": "2.1.0"`, `"ruleId": "errdrop"`, `"uri": "internal/erruse/erruse.go"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("SARIF report missing %s", want)
		}
	}

	out.Reset()
	errb.Reset()
	if code := Main(root, []string{"-json", "./internal/clean"}, &out, &errb); code != 0 {
		t.Fatalf("clean package: exit %d, want 0", code)
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}
