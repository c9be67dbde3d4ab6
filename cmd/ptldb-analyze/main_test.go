package main

import (
	"go/token"
	"strings"
	"testing"

	"ptldb/internal/analysis"
)

// TestEncodeFindingsGolden pins the -json output byte-for-byte: the field
// order (file, line, col, checker, message) is a documented contract for CI
// parsers, so a change to Finding's MarshalJSON must show up here.
func TestEncodeFindingsGolden(t *testing.T) {
	findings := []analysis.Finding{
		{
			Pos:     token.Position{Filename: "internal/sqldb/table.go", Line: 42, Column: 7},
			Checker: "allocheck",
			Message: "map literal allocates (hot path via LookupPKScratch)",
		},
		{
			Pos:     token.Position{Filename: "internal/sqldb/storage/pool.go", Line: 9, Column: 2},
			Checker: "lockordercheck",
			Message: "lock-order cycle among a ↔ b: opposite acquisition orders can deadlock",
		},
	}
	const want = `[
  {
    "file": "internal/sqldb/table.go",
    "line": 42,
    "col": 7,
    "checker": "allocheck",
    "message": "map literal allocates (hot path via LookupPKScratch)"
  },
  {
    "file": "internal/sqldb/storage/pool.go",
    "line": 9,
    "col": 2,
    "checker": "lockordercheck",
    "message": "lock-order cycle among a ↔ b: opposite acquisition orders can deadlock"
  }
]
`
	var b strings.Builder
	if err := encodeFindings(&b, findings); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("json output:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestEncodeFindingsEmpty pins the no-findings shape: an empty array, never
// null, so `jq length` and friends keep working on clean runs.
func TestEncodeFindingsEmpty(t *testing.T) {
	var b strings.Builder
	if err := encodeFindings(&b, nil); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "[]\n" {
		t.Errorf("empty output = %q, want %q", got, "[]\n")
	}
}

// TestSelectCheckers: -checkers picks from the default suite by name, in the
// order asked for, and a name outside it is an error listing the suite.
func TestSelectCheckers(t *testing.T) {
	all, err := selectCheckers("")
	if err != nil || len(all) != len(analysis.Checkers()) {
		t.Fatalf("selectCheckers(\"\") = %d checkers, %v; want the default suite", len(all), err)
	}
	got, err := selectCheckers("errcheck, lockcheck")
	if err != nil || len(got) != 2 || got[0].Name() != "errcheck" || got[1].Name() != "lockcheck" {
		t.Fatalf("selectCheckers(errcheck, lockcheck) = %v, %v", got, err)
	}
	// arenacheck was deleted: its name is as unknown as any other.
	for _, name := range []string{"arenacheck", "nope"} {
		if _, err := selectCheckers("allocheck," + name); err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("unknown checker %s: err = %v", name, err)
		}
	}
	_, err = selectCheckers("nope")
	for _, c := range all {
		if !strings.Contains(err.Error(), c.Name()) {
			t.Errorf("error does not list %s: %v", c.Name(), err)
		}
	}
}
