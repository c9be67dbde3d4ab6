package core

// stmts.go is a store's statement table. The paper gives every timetable
// version (Section 3.1) and every target set (Section 3.2, Tables 4–6) its own
// tables, all queried by the same Codes 1–4 with the table names filled in, so
// the statements a store can run are fixed by its catalog. Open prepares
// each once and nothing adds to the table after, and a query indexes it:
// nothing on the query path formats or parses a statement.

import (
	"fmt"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/exec"
)

// stmtTable holds one statement per query code: a version's entry fills the
// four vertex-to-vertex codes (Code 1's EA, LD and SD, and the journey
// witness), a target set's the six kNN and one-to-many codes (Codes 2–4), and
// every other slot is nil. The codes' names (obs.Code.String) are the names
// ExplainPrepared accepts, in the order ExplainNames lists them.
type stmtTable [obs.NumCodes]*sqldb.Stmt

// versionStmts is one timetable version's entry in the statement table.
type versionStmts struct {
	stmts stmtTable
	sets  map[string]*setStmts
}

// setStmts is one target set's entry: its statements and the kmax its kNN
// tables were built for, so that one lookup both validates a query and
// fetches its statement.
type setStmts struct {
	kmax  int
	stmts stmtTable
}

// prepareVersion is the entry of v's version in the statement table: its v2v
// statements and those of every target set it has. Only Open calls it.
func prepareVersion(db *sqldb.DB, v view) (*versionStmts, error) {
	e := &versionStmts{sets: make(map[string]*setStmts, len(v.vm().TargetSets))}
	if err := v.prepare(db, "", &e.stmts); err != nil {
		return nil, err
	}
	for set, ts := range v.vm().TargetSets {
		se := &setStmts{kmax: ts.KMax}
		if err := v.prepare(db, set, &se.stmts); err != nil {
			return nil, err
		}
		e.sets[set] = se
	}
	return e, nil
}

// prepare parses the bound version's statements on db into into: its four
// v2v statements when set is "", else the six of its target set of that
// name, each the text of exec/codes.go over that version's or set's tables.
// It is the one place core formats a statement or calls Prepare.
func (v view) prepare(db *sqldb.DB, set string, into *stmtTable) error {
	lout, w := v.loutTable(), v.meta.BucketSeconds
	var texts [obs.NumCodes]string
	if set == "" {
		lin := v.linTable()
		texts = [obs.NumCodes]string{
			obs.CodeV2VEA:        fmt.Sprintf(exec.SQLV2VEA, lout, lin),
			obs.CodeV2VLD:        fmt.Sprintf(exec.SQLV2VLD, lout, lin),
			obs.CodeV2VSD:        fmt.Sprintf(exec.SQLV2VSD, lout, lin),
			obs.CodeV2VEAWitness: fmt.Sprintf(exec.SQLV2VEAWitness, lout, lin),
		}
	} else {
		t := v.targetSetDefs(set, 0)
		texts = [obs.NumCodes]string{
			obs.CodeKNNNaiveEA: fmt.Sprintf(exec.SQLKNNNaiveEA, t[naiveTable].Name, lout),
			obs.CodeKNNNaiveLD: fmt.Sprintf(exec.SQLKNNNaiveLD, t[naiveTable].Name, lout),
			obs.CodeKNNEA:      fmt.Sprintf(exec.SQLKNNEA, t[knnEATable].Name, w, lout),
			obs.CodeKNNLD:      fmt.Sprintf(exec.SQLKNNLD, t[knnLDTable].Name, w, lout),
			obs.CodeOTMEA:      fmt.Sprintf(exec.SQLOTMEA, t[otmEATable].Name, w, lout),
			obs.CodeOTMLD:      fmt.Sprintf(exec.SQLOTMLD, t[otmLDTable].Name, w, lout),
		}
	}
	for code, text := range texts {
		if text == "" {
			continue
		}
		st, err := db.Prepare(text)
		if err != nil {
			return err
		}
		into[code] = st
	}
	return nil
}

// named is t's statement whose code is named name, nil when t has none.
func (t *stmtTable) named(name string) *sqldb.Stmt {
	for code, st := range t {
		if st != nil && obs.Code(code).String() == name {
			return st
		}
	}
	return nil
}

// names appends the names of t's statements, in code order, each followed by
// suffix, to out.
func (t *stmtTable) names(out []string, suffix string) []string {
	for code, st := range t {
		if st != nil {
			out = append(out, obs.Code(code).String()+suffix)
		}
	}
	return out
}
