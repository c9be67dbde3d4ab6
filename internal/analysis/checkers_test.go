package analysis_test

import (
	"path/filepath"
	"testing"

	"ptldb/internal/analysis"
	"ptldb/internal/analysis/analysistest"
)

func corpus(name string) string { return filepath.Join("testdata", "src", name) }

func TestSQLCheck(t *testing.T) {
	analysistest.Run(t, corpus("sqlcheck"), analysis.NewSQLCheck())
}

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
// waiver suppresses its errcheck finding, the waiver naming a checker that
// did not run stays unjudged, and the stale waiver is the run's only
// finding. The stale report lands on the directive's own comment line, which
// cannot also carry a want comment — hence no analysistest here.
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
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the stale waiver", findings)
	}
	f := findings[0]
	if f.Checker != "directive" {
		t.Errorf("checker = %q, want %q", f.Checker, "directive")
	}
	const wantMsg = "stale lint:ignore: no errcheck finding on this or the next line; delete the waiver"
	if f.Message != wantMsg {
		t.Errorf("message = %q, want %q", f.Message, wantMsg)
	}
	if f.Pos.Line != 20 {
		t.Errorf("line = %d, want 20 (the stale directive comment)", f.Pos.Line)
	}
	// The text form ptldb-analyze prints: a compiler-style diagnostic.
	if got, want := f.String(), f.Pos.String()+": directive: "+wantMsg; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestCleanCorpus runs every checker (errcheck unscoped) over the negative
// corpus, which must come out without a single finding.
func TestCleanCorpus(t *testing.T) {
	analysistest.Run(t, corpus("clean"),
		analysis.NewSQLCheck(),
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
