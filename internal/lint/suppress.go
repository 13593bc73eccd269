package lint

import "strings"

// suppressionSet records which analyzers are waived on which lines,
// keeping the directive responsible so the Check pipeline can mark it
// used (stalesuppress flags the ones that never are). A suppression
// comment covers its own line (trailing-comment style) and the line
// immediately below it (comment-above style).
type suppressionSet map[int]map[string]*directive

// lookup returns the directive waiving analyzer on line, or nil.
func (s suppressionSet) lookup(analyzer string, line int) *directive {
	return s[line][analyzer]
}

func (s suppressionSet) add(d *directive, line int) {
	if s[line] == nil {
		s[line] = make(map[string]*directive)
	}
	if s[line][d.d.Analyzer] == nil {
		s[line][d.d.Analyzer] = d
	}
}

// allowDirective holds one parsed //sdflint:allow comment.
type allowDirective struct {
	Analyzer string
	Reason   string
}

// directive is one sdflint:allow comment found in a file, valid or
// not, with the position it is reported at.
type directive struct {
	d         *allowDirective // nil when malformed
	line, col int
	used      bool // set when the directive waives a finding
}

// parseAllow parses the text of a single comment. It returns
// (nil, false) for comments that are not suppression directives at
// all, and (nil, true) for directives that are malformed — missing
// analyzer, unknown analyzer, or missing reason.
func parseAllow(text string, known map[string]bool) (*allowDirective, bool) {
	body, ok := strings.CutPrefix(text, "//")
	if !ok {
		body, ok = strings.CutPrefix(text, "/*")
		if !ok {
			return nil, false
		}
		body = strings.TrimSuffix(body, "*/")
	}
	// Accept both the directive form //sdflint:allow and the spaced
	// form // sdflint:allow; the directive form is canonical (gofmt
	// keeps it flush, like //go: directives).
	body = strings.TrimSpace(body)
	rest, ok := strings.CutPrefix(body, "sdflint:allow")
	if !ok {
		return nil, false
	}
	if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
		return nil, false // e.g. sdflint:allowance — not this directive
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, true // no analyzer
	}
	if !known[fields[0]] {
		return nil, true // unknown analyzer
	}
	if len(fields) < 2 {
		return nil, true // reason is mandatory
	}
	return &allowDirective{Analyzer: fields[0], Reason: strings.Join(fields[1:], " ")}, true
}

// suppressions returns the file's sdflint:allow comments, valid or not,
// in source order, and the waiver set of the valid ones — each covering
// its own line and the next. Both are built once per File.
func (f *File) suppressions() ([]*directive, suppressionSet) {
	if f.sup != nil {
		return f.dirs, f.sup
	}
	known := analyzerNames()
	f.sup = make(suppressionSet)
	for _, group := range f.AST.Comments {
		for _, c := range group.List {
			d, isDirective := parseAllow(c.Text, known)
			if !isDirective {
				continue
			}
			_, line, col := f.Pos(c.Pos())
			dir := &directive{d: d, line: line, col: col}
			f.dirs = append(f.dirs, dir)
			if d != nil {
				f.sup.add(dir, line)
				f.sup.add(dir, line+1)
			}
		}
	}
	return f.dirs, f.sup
}

// fileSuppressions returns the file's waiver set, and its malformed
// directives as findings under the pseudo-analyzer name "sdflint";
// those waive nothing.
func fileSuppressions(f *File) (suppressionSet, []Finding) {
	dirs, set := f.suppressions()
	var bad []Finding
	for _, dir := range dirs {
		if dir.d == nil {
			bad = append(bad, Finding{
				File: f.Path, Line: dir.line, Col: dir.col, Analyzer: "sdflint",
				Message: "malformed suppression: want //sdflint:allow <analyzer> <reason> " +
					"with a known analyzer and a non-empty reason",
			})
		}
	}
	return set, bad
}
