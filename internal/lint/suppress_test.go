package lint

import (
	"go/parser"
	"go/token"
	"testing"
)

func TestParseAllow(t *testing.T) {
	known := analyzerNames()
	cases := []struct {
		name      string
		comment   string
		directive bool // recognized as an sdflint:allow directive at all
		valid     bool // parsed into a usable suppression
		analyzer  string
		reason    string
	}{
		{"canonical", "//sdflint:allow nowallclock host-side timeout", true, true, "nowallclock", "host-side timeout"},
		{"spaced", "// sdflint:allow rawgo bridging to host thread", true, true, "rawgo", "bridging to host thread"},
		{"block", "/*sdflint:allow maporder output sorted by caller*/", true, true, "maporder", "output sorted by caller"},
		{"multiword reason", "//sdflint:allow seededrand jitter is host-side, not replayed", true, true, "seededrand", "jitter is host-side, not replayed"},
		{"tab separated", "//sdflint:allow\tseededrand\thost only", true, true, "seededrand", "host only"},
		{"missing reason", "//sdflint:allow nowallclock", true, false, "", ""},
		{"missing everything", "//sdflint:allow", true, false, "", ""},
		{"unknown analyzer", "//sdflint:allow nosuchthing some reason", true, false, "", ""},
		{"reason but no analyzer", "//sdflint:allow this is not an analyzer", true, false, "", ""},
		{"different directive", "//go:generate stringer", false, false, "", ""},
		{"prose mentioning it", "// use sdflint:allow to waive findings", false, false, "", ""},
		{"prefix collision", "//sdflint:allowance nowallclock x", false, false, "", ""},
		{"plain comment", "// nothing to see", false, false, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, isDirective := parseAllow(tc.comment, known)
			if isDirective != tc.directive {
				t.Fatalf("directive = %v, want %v", isDirective, tc.directive)
			}
			if (d != nil) != tc.valid {
				t.Fatalf("valid = %v, want %v", d != nil, tc.valid)
			}
			if d != nil {
				if d.Analyzer != tc.analyzer {
					t.Errorf("analyzer = %q, want %q", d.Analyzer, tc.analyzer)
				}
				if d.Reason != tc.reason {
					t.Errorf("reason = %q, want %q", d.Reason, tc.reason)
				}
			}
		})
	}
}

// parseTestFile builds a one-file fixture File from source, without a
// surrounding module on disk.
func parseTestFile(t *testing.T, src string) *File {
	t.Helper()
	m := &Module{Fset: token.NewFileSet()}
	astFile, err := parser.ParseFile(m.Fset, "internal/x/x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Dir: "internal/x", Name: astFile.Name.Name}
	f := &File{Module: m, Pkg: pkg, AST: astFile, Path: "internal/x/x.go"}
	pkg.Files = []*File{f}
	return f
}

// TestSuppressionCoverage pins which lines a directive waives: its own
// line and the next, nothing else.
func TestSuppressionCoverage(t *testing.T) {
	f := parseTestFile(t, `package x

//sdflint:allow rawgo reason one
var a = 1

var b = 2
`)
	set, bad := fileSuppressions(f)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed findings: %v", bad)
	}
	if set.lookup("rawgo", 3) == nil || set.lookup("rawgo", 4) == nil {
		t.Error("directive must cover its own line and the next")
	}
	if set.lookup("rawgo", 5) != nil || set.lookup("rawgo", 6) != nil {
		t.Error("directive must not cover later lines")
	}
	if set.lookup("nowallclock", 4) != nil {
		t.Error("directive must only waive the named analyzer")
	}
}

// TestMalformedSuppressionFindings checks that bad directives surface
// as sdflint findings and suppress nothing.
func TestMalformedSuppressionFindings(t *testing.T) {
	f := parseTestFile(t, `package x

//sdflint:allow rawgo
var a = 1

//sdflint:allow unknownthing with a reason
var b = 2
`)
	set, bad := fileSuppressions(f)
	if len(bad) != 2 {
		t.Fatalf("malformed findings = %d, want 2: %v", len(bad), bad)
	}
	for _, fd := range bad {
		if fd.Analyzer != "sdflint" {
			t.Errorf("malformed finding analyzer = %q, want sdflint", fd.Analyzer)
		}
	}
	if bad[0].Line != 3 || bad[1].Line != 6 {
		t.Errorf("malformed finding lines = %d,%d want 3,6", bad[0].Line, bad[1].Line)
	}
	if set.lookup("rawgo", 4) != nil {
		t.Error("reasonless directive must not suppress")
	}
}
