package core

// stmts.go is a store's statement table. The paper gives every timetable
// version (Section 3.1) and every target set (Section 3.2, Tables 4–6) its own
// tables, all queried by the same Codes 1–4 with the table names filled in, so
// the statements a store can run are fixed by its catalog. Each is prepared
// once, when its tables appear, and a query indexes the table: nothing on the
// query path formats or parses a statement.

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

// setKind indexes a target set's kNN and one-to-many statements (Codes 2–4)
// and, in the same order, its six tables (targetSetDefs). setKindNames is its
// one name table, in the order ExplainNames lists them.
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

// prepareVersion enters the bound version in the statement table with its v2v
// statements and no target sets.
func (s *Store) prepareVersion() error {
	e := &versionStmts{sets: map[string]*setStmts{}}
	if err := s.prepare("", e.v2v[:]); err != nil {
		return err
	}
	s.stmts[s.version] = e
	return nil
}

// prepareSet enters one target set of the bound version in the statement
// table.
func (s *Store) prepareSet(set string, kmax int) error {
	e := &setStmts{kmax: kmax}
	if err := s.prepare(set, e.stmts[:]); err != nil {
		return err
	}
	s.stmts[s.version].sets[set] = e
	return nil
}

// prepare parses the bound version's statements into into: its four v2v
// statements when set is "", else the six of its target set of that name,
// each the text of exec/codes.go over that version's or set's tables. It is
// the one place core formats a statement or calls Prepare.
func (s *Store) prepare(set string, into []*sqldb.Stmt) error {
	lout, w := s.loutTable(), s.meta.BucketSeconds
	var texts []string
	if set == "" {
		lin := s.linTable()
		texts = []string{
			v2vEA:      fmt.Sprintf(exec.SQLV2VEA, lout, lin),
			v2vLD:      fmt.Sprintf(exec.SQLV2VLD, lout, lin),
			v2vSD:      fmt.Sprintf(exec.SQLV2VSD, lout, lin),
			v2vWitness: fmt.Sprintf(exec.SQLV2VEAWitness, lout, lin),
		}
	} else {
		t := s.targetSetDefs(set)
		texts = []string{
			knnNaiveEA: fmt.Sprintf(exec.SQLKNNNaiveEA, t[knnNaiveEA].Name, lout),
			knnNaiveLD: fmt.Sprintf(exec.SQLKNNNaiveLD, t[knnNaiveLD].Name, lout),
			knnEA:      fmt.Sprintf(exec.SQLKNNEA, t[knnEA].Name, w, lout),
			knnLD:      fmt.Sprintf(exec.SQLKNNLD, t[knnLD].Name, w, lout),
			otmEA:      fmt.Sprintf(exec.SQLOTMEA, t[otmEA].Name, w, lout),
			otmLD:      fmt.Sprintf(exec.SQLOTMLD, t[otmLD].Name, w, lout),
		}
	}
	for i, text := range texts {
		st, err := s.DB.Prepare(text)
		if err != nil {
			return err
		}
		into[i] = st
	}
	return nil
}
