// Package sqlcheck is the golden corpus for the sqlcheck checker. Sinks are
// recognized by callee name, so small local stubs stand in for sqldb.DB and
// core's prepared helper; the SQL itself is still parsed (and fused) with the
// real engine packages inside the checker.
package sqlcheck

import "fmt"

type stmt struct{}

type db struct{}

func (db) Prepare(q string) (*stmt, error)       { return nil, nil }
func (db) CachedPrepare(q string) (*stmt, error) { return nil, nil }
func (db) Query(q string, args ...any) error     { return nil }

type store struct{ db db }

// prepared mirrors core's plan-cache helper; its own CachedPrepare call has a
// non-constant argument and is out of lint scope.
func (s store) prepared(format string, a ...any) (*stmt, error) {
	return s.db.CachedPrepare(fmt.Sprintf(format, a...))
}

// fusedEA is the paper's Code 1 EA statement, verbatim from exec/codes.go:
// it must parse and fuse.
const fusedEA = `
WITH outp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[1]s WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[2]s WHERE v=$2)
SELECT MIN(inp.ta)
FROM outp, inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND outp.td>=$3`

// notFused parses fine but matches none of the Codes 1-4 shapes.
const notFused = `SELECT a FROM nums`

func dynamic() string { return "SELECT a FROM nums" }

func examples(s store, d db) {
	_ = d.Query("SELEC hub FROM lout")                   // want `does not parse`
	_ = d.Query("SELECT a FROM nums")                    // ok: parses
	_ = d.Query(fmt.Sprintf("SELECT a FROM %s", "nums")) // ok: constant format, parses after substitution
	_ = d.Query(fmt.Sprintf("SELEC a FROM %s", "nums"))  // want `does not parse`
	_, _ = d.CachedPrepare("SELECT a FROM nums")         // ok: parse-only sink
	_, _ = d.Prepare("SELECT a FROM nums WHERE")         // want `does not parse`
	_, _ = s.prepared(fusedEA, "lout", "lin")            // ok: Code 1 fuses
	_, _ = s.prepared(notFused)                          // want `does not compile to a fused plan`
	_, _ = s.prepared("SELECT %v FROM t")                // want `unsupported format verb`
	_ = d.Query(dynamic())                               // ok: dynamic SQL is out of lint scope

	//lint:ignore sqlcheck golden corpus proves waivers suppress findings
	_ = d.Query("SELEC waived FROM lint") // ok: waived by the directive above

	/*lint:ignore sqlcheck*/ // want `malformed lint:ignore`
	_ = d.Query("SELECT a FROM nums")
}
