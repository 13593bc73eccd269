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

// TestGoldenOutput pins the -sarif rendering byte for byte
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

// TestBrokenTreeFails checks that a tree that does not compile is a
// load error, not a partial check: a parse error and a type error each
// make Run fail and Main exit 2, naming the broken file.
func TestBrokenTreeFails(t *testing.T) {
	okFile := `package ok

import "time"

func Now() time.Time { return time.Now() }
`
	for _, tc := range []struct {
		name, src string
	}{
		{"parse error", "package broken\n\nfunc Oops() {\n"},
		{"type error", "package broken\n\nfunc Oops() { undefinedFunc() }\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := writeTree(t, map[string]string{
				"go.mod":                    "module tmpmod\n\ngo 1.23\n",
				"internal/broken/broken.go": tc.src,
				"internal/ok/ok.go":         okFile,
			})
			if findings, err := Run(root, nil); err == nil {
				t.Fatalf("Run on a broken tree: want error, got %d findings: %v", len(findings), findings)
			}
			var out, errb bytes.Buffer
			if code := Main(root, nil, &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2 (stdout: %s)", code, out.String())
			}
			if !strings.Contains(errb.String(), "broken.go") {
				t.Errorf("stderr does not name the broken file: %q", errb.String())
			}
		})
	}
}

// TestMainOutputModes drives -sarif through the command entry point:
// it writes a report file next to the text findings, with the same
// exit status.
func TestMainOutputModes(t *testing.T) {
	root := fixtureRoot(t)
	sarif := filepath.Join(t.TempDir(), "out.sarif")
	var out, errb bytes.Buffer
	if code := Main(root, []string{"-sarif", sarif, "./internal/erruse"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "[errdrop]") {
		t.Errorf("text findings missing next to -sarif:\n%s", out.String())
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
	if code := Main(root, []string{"-sarif", sarif, "./internal/clean"}, &out, &errb); code != 0 {
		t.Fatalf("clean package: exit %d, want 0", code)
	}
	data, err = os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"results": []`) {
		t.Errorf("clean SARIF report has results:\n%s", data)
	}
}
