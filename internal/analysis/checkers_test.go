package analysis_test

import (
	"path/filepath"
	"testing"

	"ptldb/internal/analysis"
	"ptldb/internal/analysis/analysistest"
)

func corpus(name string) string { return filepath.Join("testdata", "src", name) }

func TestLockCheck(t *testing.T) {
	analysistest.Run(t, corpus("lockcheck"), analysis.NewLockCheck())
}

func TestAtomicCheck(t *testing.T) {
	analysistest.Run(t, corpus("atomiccheck"), analysis.NewAtomicCheck())
}

func TestArenaCheck(t *testing.T) {
	analysistest.Run(t, corpus("arenacheck"), analysis.NewArenaCheck())
}

func TestErrCheck(t *testing.T) {
	analysistest.Run(t, corpus("errcheck"), analysis.NewErrCheck())
}

func TestLockOrderCheck(t *testing.T) {
	analysistest.Run(t, corpus("lockordercheck"), analysis.NewLockOrderCheck())
}

func TestAllocCheck(t *testing.T) {
	analysistest.Run(t, corpus("allocheck"), analysis.NewAllocCheck())
}

// TestStaleWaiver drives the directive corpus straight through Run: the used
// waivers suppress their errcheck findings, the waiver naming a checker that
// did not run stays unjudged, and the run's findings are exactly the stale
// waiver, the malformed one and the one naming a checker the suite does not
// have. Each report lands on the directive's own comment line, which cannot
// also carry a want comment — hence no analysistest here.
func TestStaleWaiver(t *testing.T) {
	dir := corpus("directive")
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(dir, ".")
	if err != nil {
		t.Fatal(err)
	}
	findings := analysis.Run(pkgs, []analysis.Checker{analysis.NewErrCheck()})
	want := []struct {
		line int
		msg  string
	}{
		{23, "stale lint:ignore: no errcheck finding on this or the next line; delete the waiver"},
		{37, `malformed lint:ignore: want "lint:ignore <checker> <reason>"`},
		{42, `unknown checker "sqlcheck" in lint:ignore`},
	}
	if len(findings) != len(want) {
		t.Fatalf("findings = %v, want the stale, the malformed and the unknown waiver", findings)
	}
	for i, f := range findings {
		if f.Checker != "directive" || f.Pos.Line != want[i].line || f.Message != want[i].msg {
			t.Errorf("finding %d = %s, want directive: %q on line %d", i, f, want[i].msg, want[i].line)
		}
		// The text form ptldb-analyze prints: a compiler-style diagnostic.
		if got, want := f.String(), f.Pos.String()+": directive: "+want[i].msg; got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestCleanCorpus runs every checker (errcheck unscoped) over the negative
// corpus, which must come out without a single finding.
func TestCleanCorpus(t *testing.T) {
	analysistest.Run(t, corpus("clean"),
		analysis.NewLockCheck(),
		analysis.NewLockOrderCheck(),
		analysis.NewAtomicCheck(),
		analysis.NewArenaCheck(),
		analysis.NewAllocCheck(),
		analysis.NewErrCheck(),
	)
}

// TestModuleClean is the lint gate as a test: the production suite over the
// whole module must report zero findings.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module typecheck is slow; run without -short")
	}
	root := filepath.Join("..", "..")
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, f := range analysis.Run(pkgs, analysis.Checkers()) {
		t.Errorf("%s", f)
	}
}
