package core

// stmts.go is a store's statement table. The paper gives every timetable
// version (Section 3.1) and every target set (Section 3.2, Tables 4–6) its own
// tables, all queried by the same Codes 1–4 with the table names filled in, so
// the statements a store can run are fixed by its catalog. Open prepares
// each once and nothing adds to the table after, and a query indexes it:
// nothing on the query path formats or parses a statement.

import (
	"fmt"

	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/exec"
)

// v2vKind indexes a version's vertex-to-vertex statements: Code 1's EA, LD
// and SD, and the journey witness. v2vKindNames is its one name table, the
// names ExplainPrepared accepts for them.
type v2vKind int

const (
	v2vEA v2vKind = iota
	v2vLD
	v2vSD
	v2vWitness
	numV2VKinds
)

var v2vKindNames = [numV2VKinds]string{"v2v-ea", "v2v-ld", "v2v-sd", "v2v-ea-witness"}

// setKind indexes a target set's kNN and one-to-many statements (Codes 2–4).
// setKindNames is its one name table, in the order ExplainNames lists them.
type setKind int

const (
	knnNaiveEA setKind = iota
	knnNaiveLD
	knnEA
	knnLD
	otmEA
	otmLD
	numSetKinds
)

var setKindNames = [numSetKinds]string{"knn-naive-ea", "knn-naive-ld", "knn-ea", "knn-ld", "otm-ea", "otm-ld"}

// versionStmts is one timetable version's entry in the statement table.
type versionStmts struct {
	v2v  [numV2VKinds]*sqldb.Stmt
	sets map[string]*setStmts
}

// setStmts is one target set's entry: its statements and the kmax its kNN
// tables were built for, so that one lookup both validates a query and
// fetches its statement.
type setStmts struct {
	kmax  int
	stmts [numSetKinds]*sqldb.Stmt
}

// prepareVersion is the entry of v's version in the statement table: its v2v
// statements and those of every target set it has. Only Open calls it.
func prepareVersion(db *sqldb.DB, v view) (*versionStmts, error) {
	e := &versionStmts{sets: make(map[string]*setStmts, len(v.vm().TargetSets))}
	if err := v.prepare(db, "", e.v2v[:]); err != nil {
		return nil, err
	}
	for set, ts := range v.vm().TargetSets {
		se := &setStmts{kmax: ts.KMax}
		if err := v.prepare(db, set, se.stmts[:]); err != nil {
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
func (v view) prepare(db *sqldb.DB, set string, into []*sqldb.Stmt) error {
	lout, w := v.loutTable(), v.meta.BucketSeconds
	var texts []string
	if set == "" {
		lin := v.linTable()
		texts = []string{
			v2vEA:      fmt.Sprintf(exec.SQLV2VEA, lout, lin),
			v2vLD:      fmt.Sprintf(exec.SQLV2VLD, lout, lin),
			v2vSD:      fmt.Sprintf(exec.SQLV2VSD, lout, lin),
			v2vWitness: fmt.Sprintf(exec.SQLV2VEAWitness, lout, lin),
		}
	} else {
		t := v.targetSetDefs(set, 0)
		texts = []string{
			knnNaiveEA: fmt.Sprintf(exec.SQLKNNNaiveEA, t[naiveTable].Name, lout),
			knnNaiveLD: fmt.Sprintf(exec.SQLKNNNaiveLD, t[naiveTable].Name, lout),
			knnEA:      fmt.Sprintf(exec.SQLKNNEA, t[knnEATable].Name, w, lout),
			knnLD:      fmt.Sprintf(exec.SQLKNNLD, t[knnLDTable].Name, w, lout),
			otmEA:      fmt.Sprintf(exec.SQLOTMEA, t[otmEATable].Name, w, lout),
			otmLD:      fmt.Sprintf(exec.SQLOTMLD, t[otmLDTable].Name, w, lout),
		}
	}
	for i, text := range texts {
		st, err := db.Prepare(text)
		if err != nil {
			return err
		}
		into[i] = st
	}
	return nil
}
