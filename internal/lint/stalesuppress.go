package lint

import (
	"fmt"
	"sort"
)

// StaleSuppress flags //sdflint:allow directives that no longer waive
// any finding. A suppression is a standing claim — "this line violates
// rule X for reason Y" — and when the offending code is later fixed or
// deleted the claim goes stale: it stops documenting anything true and
// silently waives the next violation someone introduces on that line.
// The analyzer is implemented inside the Check pipeline itself (it
// needs every other analyzer's pre-suppression findings to know which
// directives worked), so this declaration only contributes the name,
// the doc line, and the -list entry.
//
// A stale directive that is itself intentional — say, kept while a
// flaky refactor settles — can be waived with a directive on the line
// above it: //sdflint:allow stalesuppress <reason>.
var StaleSuppress = &Analyzer{
	Name: "stalesuppress",
	Doc:  "flag //sdflint:allow directives that no longer suppress any finding",
}

// staleFindings reports the file's valid directives that waived
// nothing, once every analyzer has had its chance to consume them.
// Directives are judged in descending line order so that a
// stalesuppress waiver is credited by the directive below it before
// being judged itself; a waiver covers its own line and the next,
// matching ordinary suppression scope.
func staleFindings(f *File) []Finding {
	dirs, sup := f.suppressions()
	ordered := append([]*directive(nil), dirs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].line > ordered[j].line })
	var out []Finding
	for _, d := range ordered {
		if d.d == nil || d.used {
			continue
		}
		if w := sup.lookup("stalesuppress", d.line); w != nil && w != d {
			w.used = true
			continue
		}
		out = append(out, Finding{
			File: f.Path, Line: d.line, Col: d.col, Analyzer: "stalesuppress",
			Message: fmt.Sprintf("//sdflint:allow %s waives no finding; a stale directive documents "+
				"nothing true and silently covers the next violation on its line — delete it "+
				"or waive with //sdflint:allow stalesuppress <reason> above it",
				d.d.Analyzer),
		})
	}
	return out
}
