// Package analysis is PTLDB's project-specific static-analysis suite. It
// type-checks the module from source with nothing but the standard library
// (go/parser + go/types + the source importer) and runs checkers that lock in
// the invariants the hot paths depend on but the type system cannot see:
//
//   - lockcheck: no device I/O or blocking channel operations while a
//     buffer-pool shard mutex (a mutex field annotated "lockcheck:shard") is
//     held, and every Lock has an Unlock on all return paths.
//   - lockordercheck: a whole-module lock-acquisition graph over all
//     annotated mutexes ("lockcheck:shard") and latches ("lockcheck:latch")
//     — cycles, two shard mutexes held at once, and undocumented or violated
//     "level=N" ordering are findings.
//   - atomiccheck: a field accessed through sync/atomic anywhere must be
//     accessed atomically everywhere.
//   - arenacheck: slices carved out of exec.RowScratch's append-only Arena
//     must not be stored in struct fields, returned, or sent on channels.
//   - allocheck: functions reachable from "// hotpath" roots must be
//     statically allocation-free — no heap literals, closures, fmt, string
//     building or interface boxing; append and make only through the arena
//     capacity-growth protocol ("hotpath:cold" exempts a cold statement or
//     callee).
//   - errcheck: no silently discarded error results in internal/sqldb,
//     internal/obs, and the cmd/ binaries.
//
// The two lock checkers are forward dataflows on one engine — cfg.go's
// control-flow graph and solver — over one fact base of lock classes and
// call summaries (newLockFacts). allocheck walks the AST from its roots over
// modindex.go; the rest inspect statements where they stand.
//
// Checkers identify project constructs by convention (method names, the
// Arena field name, the lockcheck:shard field annotation) rather than by
// type identity, so each checker is exercised by a small self-contained
// golden-file corpus under testdata/ (see the analysistest package).
//
// A finding can be waived with a directive comment on the offending line or
// the line directly above it:
//
//	//lint:ignore <checker> <reason>
//
// The reason is mandatory: a waiver without a written justification is
// itself reported, and so is a stale waiver — one that no longer suppresses
// any finding of a checker that ran — and one naming no checker of the
// suite.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one checker diagnostic at a source position.
type Finding struct {
	Pos     token.Position
	Checker string
	Message string
}

// String formats the finding like a compiler diagnostic.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Checker, f.Message)
}

// MarshalJSON emits the flat, stable schema CI consumers parse (documented
// in README): one object per finding with exactly the keys file, line, col,
// checker, message — in that order.
func (f Finding) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Checker string `json:"checker"`
		Message string `json:"message"`
	}{f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Checker, f.Message})
}

// Checker is one analysis pass; every checker also implements exactly one of
// PackageChecker or ModuleChecker, which fixes its granularity.
type Checker interface {
	Name() string
}

// PackageChecker analyzes one type-checked package at a time.
type PackageChecker interface {
	Checker
	Check(p *Package) []Finding
}

// ModuleChecker analyzes all loaded packages at once — for facts that only
// exist whole-module, like the lock-acquisition graph or cross-package
// hot-path reachability.
type ModuleChecker interface {
	Checker
	CheckModule(pkgs []*Package) []Finding
}

// Checkers returns the full PTLDB suite with its production scoping:
// errcheck is limited to the storage engine (where a swallowed error means
// silent data loss), the observability layer, and the CLI binaries; every
// other checker runs module-wide.
func Checkers() []Checker {
	return []Checker{
		NewLockCheck(),
		NewLockOrderCheck(),
		NewAtomicCheck(),
		NewArenaCheck(),
		NewAllocCheck(),
		NewErrCheck("ptldb/internal/sqldb", "ptldb/internal/obs", "ptldb/internal/serve", "ptldb/internal/tenant", "ptldb/cmd"),
	}
}

// CheckerNames returns the names of the default suite, for -checkers help.
func CheckerNames() []string {
	var names []string
	for _, c := range Checkers() {
		names = append(names, c.Name())
	}
	return names
}

// Run executes the checkers over the packages, drops the findings a waiver
// directive covers, and returns the rest sorted by position. Malformed
// directives (no checker name or no reason) are themselves findings, and so
// are stale ones — a waiver naming a checker that ran but suppressed nothing
// has outlived its bug and must be deleted — and ones naming a checker that
// is not in the suite (CheckerNames), which would otherwise wait forever for
// a run to judge them.
func Run(pkgs []*Package, checkers []Checker) []Finding {
	dirs, out := collectDirectives(pkgs)
	ran := map[string]bool{}
	for _, c := range checkers {
		ran[c.Name()] = true
		var findings []Finding
		switch ck := c.(type) {
		case ModuleChecker:
			findings = ck.CheckModule(pkgs)
		case PackageChecker:
			for _, p := range pkgs {
				findings = append(findings, ck.Check(p)...)
			}
		}
		for _, f := range findings {
			if dirs.waive(f) {
				continue
			}
			out = append(out, f)
		}
	}
	out = append(out, dirs.stale(ran)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Checker < b.Checker
	})
	return out
}

// --- lint:ignore directives --------------------------------------------------

// directiveKey locates one waiver: a checker name on one line of one file.
type directiveKey struct {
	file    string
	line    int
	checker string
}

// directiveState tracks whether a waiver earned its keep during this run.
type directiveState struct {
	pos  token.Position
	used bool
}

type directiveSet map[directiveKey]*directiveState

// waive reports whether f is covered by a directive on its line or the line
// directly above it, marking the directive live.
func (d directiveSet) waive(f Finding) bool {
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		if st := d[directiveKey{f.Pos.Filename, line, f.Checker}]; st != nil {
			st.used = true
			return true
		}
	}
	return false
}

// stale reports every directive that suppressed nothing, scoped to checkers
// that actually ran — a waiver for a skipped checker can't prove itself — and
// every directive naming a checker the suite does not have, which no run could
// ever judge.
func (d directiveSet) stale(ran map[string]bool) []Finding {
	known := map[string]bool{}
	for _, name := range CheckerNames() {
		known[name] = true
	}
	var out []Finding
	for key, st := range d {
		var msg string
		switch {
		case !known[key.checker] && !ran[key.checker]:
			msg = fmt.Sprintf("unknown checker %q in lint:ignore", key.checker)
		case st.used || !ran[key.checker]:
			continue
		default:
			msg = fmt.Sprintf("stale lint:ignore: no %s finding on this or the next line; delete the waiver", key.checker)
		}
		out = append(out, Finding{Pos: st.pos, Checker: "directive", Message: msg})
	}
	return out
}

const directivePrefix = "lint:ignore"

// collectDirectives scans every package's comments for lint:ignore waivers.
// A directive must name a checker and give a reason; anything else is
// returned as a finding.
func collectDirectives(pkgs []*Package) (directiveSet, []Finding) {
	set := directiveSet{}
	var bad []Finding
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimPrefix(text, "/*")
					text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
					if !strings.HasPrefix(text, directivePrefix) {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
					if len(fields) < 2 {
						bad = append(bad, Finding{
							Pos:     pos,
							Checker: "directive",
							Message: "malformed lint:ignore: want \"lint:ignore <checker> <reason>\"",
						})
						continue
					}
					set[directiveKey{pos.Filename, pos.Line, fields[0]}] = &directiveState{pos: pos}
				}
			}
		}
	}
	return set, bad
}

// --- small shared AST helpers ------------------------------------------------

// calleeName returns the bare name a call is made through: the method name
// for x.M(...), the function name for F(...), "" otherwise.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
