// Package lint implements sdflint, a static-analysis suite that turns
// the repository's determinism contract into a build-time guarantee.
//
// The whole reproduction rests on the discrete-event simulator being
// bit-deterministic in virtual time (see DESIGN.md, "Determinism
// rules", and internal/core's replay test). That property is easy to
// break by accident from anywhere in the tree: one wall-clock read, an
// unseeded math/rand call, a goroutine that bypasses the scheduler, or
// a map iteration feeding a trace will all produce runs that are no
// longer replayable. Each analyzer in this package enforces one of
// those invariants:
//
//   - nowallclock: no time.Now/Sleep/timers outside cmd/, examples/,
//     and tests — simulation code reads time from sim.Env only.
//   - seededrand: no package-level math/rand functions in non-test
//     internal/ code — randomness flows through an explicit
//     *rand.Rand built from a config-threaded seed.
//   - rawgo: no raw go statements in internal/ packages other than
//     internal/sim itself — concurrency is scheduled via (*sim.Env).Go
//     so process interleaving replays identically.
//   - maporder: no map iteration whose body appends to an outer
//     slice (without a later deterministic sort), sends on a channel,
//     or writes output — Go randomizes map iteration order.
//   - inlinepark: no blocking Proc calls inside inline scheduler
//     callbacks ((*sim.Env).Schedule) — those run on the scheduler
//     goroutine itself, so parking there deadlocks the simulation
//     rather than merely perturbing it.
//
// The v2 suite adds a whole-program layer: every package is loaded and
// type-checked once, a conservative static call graph is built over
// the module (see callgraph.go for exactly what "conservative" means),
// and five more analyzers run over types and the graph instead of over
// isolated files:
//
//   - parkpath: the transitive upgrade of inlinepark — a blocking
//     Proc/Timeline call reachable from a Schedule callback through
//     any chain of module-local calls, including
//     blocking on stored or captured process handles that never cross
//     a call boundary.
//   - spanleak: a trace span begun on some path but not ended on every
//     return path — a silent trace-hash divergence.
//   - errdrop: a discarded error result from the crash-consistency-
//     critical APIs (ccdb journal/WAL, nand media persistence,
//     flashchan recovery, the core device layer).
//   - selectnondet: selects with multiple channel cases (the runtime
//     picks among ready cases randomly), and call chains reaching raw
//     go statements outside rawgo's lexical scope.
//   - stalesuppress: //sdflint:allow directives that no longer waive
//     any finding.
//
// The per-file analyzers keep working even when a file fails to parse
// or a package fails to type-check — broken trees degrade to the
// syntactic subset instead of losing the gate entirely.
//
// A finding can be waived with a suppression comment carrying a
// mandatory reason, either on the offending line or the line above:
//
//	//sdflint:allow <analyzer> <reason>
//
// The suite is built only on go/ast, go/parser and go/types; the
// module tree is walked directly so go.mod stays dependency-free.
package lint

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// A Finding is one rule violation at a position in the module.
type Finding struct {
	File     string // slash-separated path relative to the module root
	Line     int
	Col      int
	Analyzer string
	Message  string

	fix *textFix // optional safe suggested edit, applied by -fix
}

// String renders the finding in the canonical "file:line: [analyzer]
// message" form emitted by cmd/sdflint.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// An Analyzer checks one determinism invariant, either file by file
// (Run) or over the whole type-checked module and its call graph
// (RunModule). Exactly one of the two is set, except stalesuppress,
// which the Check pipeline implements itself.
type Analyzer struct {
	Name string
	Doc  string
	// Applies reports whether the file is in the analyzer's scope.
	// Out-of-scope files (generally cmd/, examples/ and tests) may use
	// the forbidden constructs freely. Module analyzers consult it
	// internally for the files they report on.
	Applies func(f *File) bool
	// Run reports violations in an in-scope file.
	Run func(f *File) []Finding
	// RunModule reports violations over the whole module; findings are
	// later filtered to the files selected by the package patterns.
	RunModule func(m *Module) []Finding
}

// Analyzers returns the full suite in stable order: the five per-file
// v1 analyzers, then the five whole-program v2 analyzers.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoWallClock, SeededRand, RawGo, MapOrder, InlinePark,
		ParkPath, SpanLeak, ErrDrop, SelectNonDet, StaleSuppress,
	}
}

func analyzerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// Run loads the module rooted at root, applies every analyzer to the
// files selected by patterns, and returns findings sorted by position.
// Patterns follow the go tool's shape: "./..." (everything), "dir/..."
// (a subtree), or "dir" (one package directory); an empty pattern list
// means "./...".
func Run(root string, patterns []string) ([]Finding, error) {
	mod, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	return mod.Check(patterns)
}

// Check applies every analyzer to the files selected by patterns and
// returns findings sorted by position. A pattern that selects no
// package is an error, so a typo cannot silently turn the lint gate
// green.
//
// The pipeline runs in five phases: per-file analyzers on each
// selected file; whole-program analyzers over the full module (their
// findings filtered to the selected files — the call graph always sees
// everything, the patterns only scope reporting); suppression, with
// each waived finding marking its directive used; stalesuppress over
// the directives that waived nothing; and finally the parse failures
// recorded at load time.
func (m *Module) Check(patterns []string) ([]Finding, error) {
	pats, err := compilePatterns(patterns)
	if err != nil {
		return nil, err
	}
	selected := make(map[string]bool)
	var files []*File
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			if !pats.match(filepath.ToSlash(filepath.Dir(file.Path))) {
				continue
			}
			selected[file.Path] = true
			files = append(files, file)
		}
	}
	// Parse-failed files without a salvageable AST are in no Package;
	// match their directories too so their load errors are reported and
	// a pattern naming only such a directory still counts as matched.
	for _, fd := range m.LoadErrors {
		pats.match(path.Dir(fd.File))
	}
	if unmatched := pats.unmatched(); len(unmatched) > 0 {
		return nil, fmt.Errorf("no packages match pattern %s", strings.Join(unmatched, ", "))
	}

	// Phase 1: per-file analyzers.
	raw := make(map[string][]Finding)
	for _, f := range files {
		for _, a := range Analyzers() {
			if a.Run == nil {
				continue
			}
			if a.Applies != nil && !a.Applies(f) {
				continue
			}
			raw[f.Path] = append(raw[f.Path], a.Run(f)...)
		}
	}

	// Phase 2: whole-program analyzers.
	for _, a := range Analyzers() {
		if a.RunModule == nil {
			continue
		}
		for _, fd := range a.RunModule(m) {
			if selected[fd.File] {
				raw[fd.File] = append(raw[fd.File], fd)
			}
		}
	}

	// Phase 3: suppression with use-tracking; malformed directives are
	// findings themselves and waive nothing.
	var findings []Finding
	for _, f := range files {
		sup, bad := fileSuppressions(f)
		findings = append(findings, bad...)
		for _, fd := range raw[f.Path] {
			if d := sup.lookup(fd.Analyzer, fd.Line); d != nil {
				d.used = true
				continue
			}
			findings = append(findings, fd)
		}
	}

	// Phase 4: stalesuppress. Runs after every other analyzer has had
	// its chance to consume a directive — including the call graph's
	// rawgo waivers, marked used when the graph was built in phase 2.
	for _, f := range files {
		findings = append(findings, staleFindings(f)...)
	}

	// Phase 5: load errors for the selected scope.
	for _, fd := range m.LoadErrors {
		if selected[fd.File] || pats.match(path.Dir(fd.File)) {
			findings = append(findings, fd)
		}
	}

	sortFindings(findings)
	return findings, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// patternSet matches slash-separated, module-root-relative package
// directories ("" for the root package) against go-tool-style
// patterns, tracking which patterns ever matched.
type patternSet struct {
	pats []struct {
		raw       string
		dir       string
		recursive bool
		hit       bool
	}
}

func compilePatterns(patterns []string) (*patternSet, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	set := &patternSet{}
	for _, raw := range patterns {
		p := strings.TrimPrefix(filepath.ToSlash(raw), "./")
		recursive := false
		if p == "..." {
			p, recursive = "", true
		} else if strings.HasSuffix(p, "/...") {
			p, recursive = strings.TrimSuffix(p, "/..."), true
		}
		p = strings.Trim(p, "/")
		if strings.Contains(p, "..") {
			return nil, fmt.Errorf("unsupported package pattern %q", raw)
		}
		set.pats = append(set.pats, struct {
			raw       string
			dir       string
			recursive bool
			hit       bool
		}{raw: raw, dir: p, recursive: recursive})
	}
	return set, nil
}

func (s *patternSet) match(dir string) bool {
	if dir == "." {
		dir = ""
	}
	matched := false
	for i := range s.pats {
		p := &s.pats[i]
		if dir == p.dir || (p.recursive && (p.dir == "" || strings.HasPrefix(dir, p.dir+"/"))) {
			p.hit = true
			matched = true
		}
	}
	return matched
}

// unmatched returns the patterns that never selected a package.
func (s *patternSet) unmatched() []string {
	var out []string
	for _, p := range s.pats {
		if !p.hit {
			out = append(out, fmt.Sprintf("%q", p.raw))
		}
	}
	return out
}

// findModuleRoot walks up from dir to the nearest directory holding a
// go.mod file.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod found in any parent directory")
		}
		dir = parent
	}
}

// Main is the command-line entry point shared by cmd/sdflint and the
// tests. It returns the process exit code: 0 for a clean tree, 1 when
// findings were reported, 2 on usage or load errors.
func Main(dir string, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("sdflint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list the analyzers and exit")
	jsonOut := flags.Bool("json", false, "emit findings as a JSON array on stdout")
	sarifPath := flags.String("sarif", "", "also write a SARIF 2.1.0 report to `file`")
	fix := flags.Bool("fix", false, "apply safe suggested fixes, then re-check and report what remains")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: sdflint [-list] [-json] [-sarif file] [-fix] [packages]\n\n")
		fmt.Fprintf(stderr, "Checks the enclosing module against the determinism rules in\n")
		fmt.Fprintf(stderr, "DESIGN.md. Packages default to ./... and accept dir or dir/... forms.\n\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintf(stderr, "sdflint: %v\n", err)
		return 2
	}
	findings, err := Run(root, flags.Args())
	if err != nil {
		fmt.Fprintf(stderr, "sdflint: %v\n", err)
		return 2
	}
	if *fix {
		n, err := ApplyFixes(root, findings)
		if err != nil {
			fmt.Fprintf(stderr, "sdflint: applying fixes: %v\n", err)
			return 2
		}
		if n > 0 {
			fmt.Fprintf(stderr, "sdflint: applied %d fix(es)\n", n)
		}
		// Re-check from scratch: the edits moved positions and may have
		// resolved (or, for stale directives, revealed) other findings.
		findings, err = Run(root, flags.Args())
		if err != nil {
			fmt.Fprintf(stderr, "sdflint: %v\n", err)
			return 2
		}
	}
	if *sarifPath != "" {
		fh, err := os.Create(*sarifPath)
		if err != nil {
			fmt.Fprintf(stderr, "sdflint: %v\n", err)
			return 2
		}
		werr := writeSARIF(fh, findings)
		if cerr := fh.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "sdflint: writing %s: %v\n", *sarifPath, werr)
			return 2
		}
	}
	if *jsonOut {
		if err := writeJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "sdflint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "sdflint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
