package lint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches expectation markers in fixture files. "want(name)"
// expects a finding of analyzer name on the marker's line;
// "want-1(name)" expects it one line above (used where the finding
// lands on a comment line that cannot carry a trailing marker).
var wantRe = regexp.MustCompile(`want([+-]\d+)?\((\w+)\)`)

func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// fixtureExpectations scans every fixture file for want markers and
// returns the expected findings as sorted "path:line:analyzer" keys.
func fixtureExpectations(t *testing.T, root string) []string {
	t.Helper()
	var want []string
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				delta := 0
				if m[1] != "" {
					delta, _ = strconv.Atoi(m[1])
				}
				want = append(want, fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), i+1+delta, m[2]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	return want
}

func findingKeys(fs []Finding) []string {
	keys := make([]string, 0, len(fs))
	for _, f := range fs {
		keys = append(keys, fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Analyzer))
	}
	sort.Strings(keys)
	return keys
}

// TestFixtureFindings runs the whole suite over the fixture module and
// requires the reported findings to match the want markers exactly —
// every violation caught, every allowed or suppressed case silent.
func TestFixtureFindings(t *testing.T) {
	root := fixtureRoot(t)
	got, err := Run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotKeys, wantKeys := findingKeys(got), fixtureExpectations(t, root)
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Errorf("findings mismatch\n got: %v\nwant: %v", gotKeys, wantKeys)
	}
}

// TestPerAnalyzerFindings checks each analyzer in isolation against
// the fixture package dedicated to it, table-driven.
func TestPerAnalyzerFindings(t *testing.T) {
	root := fixtureRoot(t)
	cases := []struct {
		analyzer string
		pattern  string
		minHits  int
	}{
		{"nowallclock", "./internal/clockuse", 5},
		{"seededrand", "./internal/randuse", 4},
		{"rawgo", "./internal/spawnuse/...", 3},
		{"maporder", "./internal/mapuse", 4},
		{"inlinepark", "./internal/parkuse", 5},
		{"parkpath", "./internal/parktrans", 2},
		{"spanleak", "./internal/spanuse", 3},
		{"errdrop", "./internal/erruse", 5},
		{"selectnondet", "./internal/seluse", 2},
		{"stalesuppress", "./internal/staleuse", 2},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			got, err := Run(root, []string{tc.pattern})
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			for _, f := range got {
				if f.Analyzer != tc.analyzer {
					t.Errorf("unexpected analyzer in %s: %v", tc.pattern, f)
					continue
				}
				count++
			}
			if count != tc.minHits {
				t.Errorf("%s: got %d findings, want %d", tc.analyzer, count, tc.minHits)
			}
		})
	}
}

// TestScopeExemptions asserts that cmd/, examples/ and _test.go files
// may use the wall clock and the global rand source.
func TestScopeExemptions(t *testing.T) {
	root := fixtureRoot(t)
	for _, pattern := range []string{"./cmd/...", "./examples/...", "./internal/clean", "./internal/sim"} {
		got, err := Run(root, []string{pattern})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("%s: want no findings, got %v", pattern, got)
		}
	}
}

// TestFindingFormat pins the canonical "file:line: [analyzer] message"
// rendering the CI grep and editors rely on.
func TestFindingFormat(t *testing.T) {
	f := Finding{File: "internal/x/x.go", Line: 7, Col: 2, Analyzer: "rawgo", Message: "boom"}
	if got, want := f.String(), "internal/x/x.go:7: [rawgo] boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	re := regexp.MustCompile(`^[^:]+\.go:\d+: \[[a-z]+\] .+$`)
	root := fixtureRoot(t)
	findings, err := Run(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range findings {
		if !re.MatchString(fd.String()) {
			t.Errorf("finding %q does not match the canonical format", fd)
		}
	}
}

// TestOrderingStable runs the suite repeatedly over a multi-package
// tree and requires byte-identical, position-sorted output: the linter
// itself must honor the determinism contract it enforces.
func TestOrderingStable(t *testing.T) {
	root := fixtureRoot(t)
	var prev []string
	for run := 0; run < 3; run++ {
		findings, err := Run(root, []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		resorted := append([]Finding(nil), findings...)
		sortFindings(resorted)
		if !reflect.DeepEqual(findings, resorted) {
			t.Fatalf("run %d: findings not sorted by position", run)
		}
		var lines []string
		for _, f := range findings {
			lines = append(lines, f.String())
		}
		if prev != nil && !reflect.DeepEqual(prev, lines) {
			t.Fatalf("run %d differs from previous run\nprev: %v\n got: %v", run, prev, lines)
		}
		prev = lines
	}
}

// TestPatternFiltering checks dir and dir/... selection over the
// multi-package fixture tree.
func TestPatternFiltering(t *testing.T) {
	root := fixtureRoot(t)
	all, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	internalOnly, err := Run(root, []string{"./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(findingKeys(all), findingKeys(internalOnly)) {
		t.Errorf("all fixture findings are under internal/, so ./... and ./internal/... must agree")
	}
	one, err := Run(root, []string{"./internal/randuse"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range one {
		if !strings.HasPrefix(f.File, "internal/randuse/") {
			t.Errorf("pattern ./internal/randuse leaked finding %v", f)
		}
	}
	if len(one) == 0 {
		t.Error("pattern ./internal/randuse found nothing")
	}
	if _, err := Run(root, []string{"../escape"}); err == nil {
		t.Error("pattern ../escape: want error, got nil")
	}
	if _, err := Run(root, []string{"./internal/doesnotexist"}); err == nil {
		t.Error("pattern matching no packages: want error, got nil (a typo must not pass the gate)")
	}
	if _, err := Run(root, []string{"./internal/clean", "./internal/doesnotexist/..."}); err == nil {
		t.Error("mixed good+dead patterns: want error for the dead one")
	}
}

// TestMainExitCodes drives the command entry point end to end: 1 on
// findings, 0 on a clean selection, 2 on load errors, and -list.
func TestMainExitCodes(t *testing.T) {
	root := fixtureRoot(t)
	var out, errb bytes.Buffer

	if code := Main(root, []string{"./..."}, &out, &errb); code != 1 {
		t.Fatalf("dirty tree: exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "[nowallclock]") || !strings.Contains(out.String(), "[maporder]") {
		t.Errorf("findings output missing analyzers:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := Main(root, []string{"./internal/clean"}, &out, &errb); code != 0 {
		t.Fatalf("clean package: exit %d, want 0 (stdout: %s)", code, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean package: unexpected output %q", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := Main(t.TempDir(), nil, &out, &errb); code != 2 {
		t.Fatalf("no go.mod: exit %d, want 2", code)
	}

	out.Reset()
	errb.Reset()
	if code := Main(root, []string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list: exit %d, want 0", code)
	}
	for _, a := range Analyzers() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing %s:\n%s", a.Name, out.String())
		}
	}
}

// TestRepositoryClean lints the enclosing repository itself. This is
// the acceptance gate: the real tree must stay free of determinism
// violations, with every waiver carrying an explicit reason.
func TestRepositoryClean(t *testing.T) {
	root, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
