// Package analysistest runs a checker over a golden-file corpus and compares
// its findings against expectation comments, x/tools-analysistest style but
// stdlib-only:
//
//	bad()        // want "regex matching the finding message"
//	alsoBad()    // want "first finding" "second finding"
//
// Every finding must be matched by a want comment on its line, and every want
// comment must be matched by a finding; either mismatch fails the test. A
// corpus with no want comments therefore doubles as a negative corpus that
// must come out clean. A corpus is its directory's package and every package
// below it, so a case can cross a package boundary.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ptldb/internal/analysis"
)

// expectation is one quoted regex from a want comment.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the packages under dir (dir/...) and checks the findings of the
// given checkers against the want comments of all of them. Directive
// suppression (lint:ignore) is active, so corpora can also prove waivers
// work.
func Run(t *testing.T, dir string, checkers ...analysis.Checker) {
	t.Helper()
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	pkgs, err := loader.Load(dir, "./...")
	if err != nil {
		t.Fatalf("analysistest: loading %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("analysistest: no package under %s", dir)
	}
	var wants []*expectation
	for _, p := range pkgs {
		w, err := parseWants(p)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		wants = append(wants, w...)
	}

	findings := analysis.Run(pkgs, checkers)
	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want %s", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmatched expectation on the finding's line whose
// regex matches the message, and reports whether one was found.
func claim(wants []*expectation, f analysis.Finding) bool {
	for _, w := range wants {
		if w.matched || w.file != f.Pos.Filename || w.line != f.Pos.Line {
			continue
		}
		if w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseWants extracts the want expectations from the package's comments.
func parseWants(p *analysis.Package) ([]*expectation, error) {
	var out []*expectation
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				raws, err := quotedStrings(rest)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
				}
				if len(raws) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment with no quoted regex", pos.Filename, pos.Line)
				}
				for _, raw := range raws {
					re, err := regexp.Compile(raw)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regex %q: %v", pos.Filename, pos.Line, raw, err)
					}
					out = append(out, &expectation{
						file: pos.Filename,
						line: pos.Line,
						re:   re,
						raw:  strconv.Quote(raw),
					})
				}
			}
		}
	}
	return out, nil
}

// quotedStrings parses a sequence of space-separated Go string literals
// (double-quoted or backquoted).
func quotedStrings(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated string in %q", s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			out = append(out, unq)
			s = s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated raw string in %q", s)
			}
			out = append(out, s[1:end+1])
			s = s[end+2:]
		default:
			return nil, fmt.Errorf("expected quoted regex at %q", s)
		}
	}
}
