package core

import (
	"fmt"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/timetable"
)

// prepared returns the shared prepared statement for the formatted SQL,
// parsing it at most once per database via the plan cache.
func (s *Store) prepared(format string, a ...any) (*sqldb.Stmt, error) {
	return s.DB.CachedPrepare(fmt.Sprintf(format, a...))
}

// setKinds are the per-target-set statement kinds setStmt builds, in the
// order ExplainNames lists them.
var setKinds = []string{"knn-naive-ea", "knn-naive-ld", "knn-ea", "knn-ld", "otm-ea", "otm-ld"}

// setStmt returns the prepared statement of one per-target-set kind over set.
// It is the one place those statements are built: the query methods execute
// what it returns and ExplainPrepared renders it, so the two trees cannot
// drift. Each arm keeps its format constant, which sqlcheck proves fuses.
func (s *Store) setStmt(kind, set string) (*sqldb.Stmt, error) {
	switch kind {
	case "knn-naive-ea":
		return s.prepared(exec.SQLKNNNaiveEA, s.setTable("ea_knn_naive", set), s.loutTable())
	case "knn-naive-ld":
		return s.prepared(exec.SQLKNNNaiveLD, s.setTable("ld_knn_naive", set), s.loutTable())
	case "knn-ea":
		return s.prepared(exec.SQLKNNEA, s.setTable("knn_ea", set), s.meta.BucketSeconds, s.loutTable())
	case "knn-ld":
		return s.prepared(exec.SQLKNNLD, s.setTable("knn_ld", set), s.meta.BucketSeconds, s.loutTable())
	case "otm-ea":
		return s.prepared(exec.SQLOTMEA, s.setTable("otm_ea", set), s.meta.BucketSeconds, s.loutTable())
	case "otm-ld":
		return s.prepared(exec.SQLOTMLD, s.setTable("otm_ld", set), s.meta.BucketSeconds, s.loutTable())
	}
	return nil, invalidf("unknown query kind %q", kind)
}

// prepareStatements parses the bound version's Code 1 statements once;
// after this, steady-state v2v queries execute with zero SQL parses.
func (s *Store) prepareStatements() error {
	var err error
	if s.v2vEA, err = s.prepared(exec.SQLV2VEA, s.loutTable(), s.linTable()); err != nil {
		return err
	}
	if s.v2vLD, err = s.prepared(exec.SQLV2VLD, s.loutTable(), s.linTable()); err != nil {
		return err
	}
	if s.v2vSD, err = s.prepared(exec.SQLV2VSD, s.loutTable(), s.linTable()); err != nil {
		return err
	}
	s.v2vWitness, err = s.prepared(exec.SQLV2VEAWitness, s.loutTable(), s.linTable())
	return err
}

// queryScalar runs a statement whose result is a single one-column row,
// observed under code.
func (s *Store) queryScalar(code obs.Code, st *sqldb.Stmt, params ...sqltypes.Value) (timetable.Time, bool, error) {
	rel, err := s.observe(code, st, params...)
	if err != nil {
		return 0, false, err
	}
	if len(rel.Rows) != 1 || len(rel.Rows[0]) != 1 {
		return 0, false, fmt.Errorf("core: scalar query returned %d rows", len(rel.Rows))
	}
	v := rel.Rows[0][0]
	if v.IsNull() {
		return 0, false, nil
	}
	n, err := v.AsInt()
	if err != nil {
		return 0, false, err
	}
	return timetable.Time(n), true, nil
}

// EarliestArrival answers EA(s, g, t) with the paper's Code 1. ok is false
// when no journey exists.
func (s *Store) EarliestArrival(src, dst timetable.StopID, t timetable.Time) (arr timetable.Time, ok bool, err error) {
	if err := s.checkStops(src, dst); err != nil {
		return 0, false, err
	}
	return s.queryScalar(obs.CodeV2VEA, s.v2vEA,
		sqltypes.NewInt(int64(src)), sqltypes.NewInt(int64(dst)), sqltypes.NewInt(int64(t)))
}

// LatestDeparture answers LD(s, g, t) with Code 1.
func (s *Store) LatestDeparture(src, dst timetable.StopID, t timetable.Time) (dep timetable.Time, ok bool, err error) {
	if err := s.checkStops(src, dst); err != nil {
		return 0, false, err
	}
	return s.queryScalar(obs.CodeV2VLD, s.v2vLD,
		sqltypes.NewInt(int64(src)), sqltypes.NewInt(int64(dst)), sqltypes.NewInt(int64(t)))
}

// ShortestDuration answers SD(s, g, t, tEnd) with Code 1.
func (s *Store) ShortestDuration(src, dst timetable.StopID, t, tEnd timetable.Time) (dur timetable.Time, ok bool, err error) {
	if err := s.checkStops(src, dst); err != nil {
		return 0, false, err
	}
	return s.queryScalar(obs.CodeV2VSD, s.v2vSD,
		sqltypes.NewInt(int64(src)), sqltypes.NewInt(int64(dst)),
		sqltypes.NewInt(int64(t)), sqltypes.NewInt(int64(tEnd)))
}

// queryResults runs a statement returning (stop, time) rows, observed under
// code.
func (s *Store) queryResults(code obs.Code, st *sqldb.Stmt, params ...sqltypes.Value) ([]Result, error) {
	rel, err := s.observe(code, st, params...)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(rel.Rows))
	for _, row := range rel.Rows {
		if len(row) != 2 {
			return nil, fmt.Errorf("core: result query returned %d columns", len(row))
		}
		v, err := row[0].AsInt()
		if err != nil {
			return nil, err
		}
		w, err := row[1].AsInt()
		if err != nil {
			return nil, err
		}
		out = append(out, Result{Stop: timetable.StopID(v), When: timetable.Time(w)})
	}
	return out, nil
}

// checkK validates k and the query stop against a registered target set.
func (s *Store) checkK(set string, q timetable.StopID, k int) error {
	if err := s.checkStop(q); err != nil {
		return err
	}
	ts, ok := s.vm().TargetSets[set]
	if !ok {
		return invalidf("unknown target set %q", set)
	}
	if k < 1 || k > ts.KMax {
		return invalidf("k=%d outside [1, kmax=%d] of target set %q", k, ts.KMax, set)
	}
	return nil
}

// EAKNNNaive answers EA-kNN(q, T, t, k) with the naive Code 2 query.
func (s *Store) EAKNNNaive(set string, q timetable.StopID, t timetable.Time, k int) ([]Result, error) {
	if err := s.checkK(set, q, k); err != nil {
		return nil, err
	}
	st, err := s.setStmt("knn-naive-ea", set)
	if err != nil {
		return nil, err
	}
	return s.queryResults(obs.CodeKNNNaiveEA, st,
		sqltypes.NewInt(int64(q)), sqltypes.NewInt(int64(t)), sqltypes.NewInt(int64(k)))
}

// LDKNNNaive answers LD-kNN(q, T, t, k) with the naive LD analogue of
// Code 2.
func (s *Store) LDKNNNaive(set string, q timetable.StopID, t timetable.Time, k int) ([]Result, error) {
	if err := s.checkK(set, q, k); err != nil {
		return nil, err
	}
	st, err := s.setStmt("knn-naive-ld", set)
	if err != nil {
		return nil, err
	}
	return s.queryResults(obs.CodeKNNNaiveLD, st,
		sqltypes.NewInt(int64(q)), sqltypes.NewInt(int64(t)), sqltypes.NewInt(int64(k)))
}

// EAKNN answers EA-kNN(q, T, t, k) with the optimized Code 3 query.
func (s *Store) EAKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]Result, error) {
	if err := s.checkK(set, q, k); err != nil {
		return nil, err
	}
	st, err := s.setStmt("knn-ea", set)
	if err != nil {
		return nil, err
	}
	return s.queryResults(obs.CodeKNNEA, st,
		sqltypes.NewInt(int64(q)), sqltypes.NewInt(int64(t)), sqltypes.NewInt(int64(k)))
}

// clampLD caps an LD query timestamp at the end of the last materialized
// arrival bucket. The knn_ld/otm_ld tables hold one row per arrival hour up
// to hour(MaxTime); a later t would probe a missing bucket and silently drop
// every candidate. Every stored arrival is <= MaxTime, so for the arrhour
// probe and every ta<=$2 comparison a t past the last bucket's end is
// equivalent to the bucket end itself.
func (s *Store) clampLD(t timetable.Time) int64 {
	last := (s.hour(s.vm().MaxTime)+1)*int64(s.meta.BucketSeconds) - 1
	if v := int64(t); v <= last {
		return v
	}
	return last
}

// LDKNN answers LD-kNN(q, T, t, k) with the optimized Code 4 query.
func (s *Store) LDKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]Result, error) {
	if err := s.checkK(set, q, k); err != nil {
		return nil, err
	}
	st, err := s.setStmt("knn-ld", set)
	if err != nil {
		return nil, err
	}
	return s.queryResults(obs.CodeKNNLD, st,
		sqltypes.NewInt(int64(q)), sqltypes.NewInt(s.clampLD(t)), sqltypes.NewInt(int64(k)))
}

// EAOTM answers EA-OTM(q, T, t) with the one-to-many variant of Code 3,
// returning the earliest arrival for every reachable target.
func (s *Store) EAOTM(set string, q timetable.StopID, t timetable.Time) ([]Result, error) {
	if err := s.checkSet(set, q); err != nil {
		return nil, err
	}
	st, err := s.setStmt("otm-ea", set)
	if err != nil {
		return nil, err
	}
	return s.queryResults(obs.CodeOTMEA, st,
		sqltypes.NewInt(int64(q)), sqltypes.NewInt(int64(t)))
}

// LDOTM answers LD-OTM(q, T, t) with the one-to-many variant of Code 4.
func (s *Store) LDOTM(set string, q timetable.StopID, t timetable.Time) ([]Result, error) {
	if err := s.checkSet(set, q); err != nil {
		return nil, err
	}
	st, err := s.setStmt("otm-ld", set)
	if err != nil {
		return nil, err
	}
	return s.queryResults(obs.CodeOTMLD, st,
		sqltypes.NewInt(int64(q)), sqltypes.NewInt(s.clampLD(t)))
}

// Raw exposes the underlying relation of an arbitrary SQL query, for the
// query CLI and tests. Observed under obs.CodeRaw.
func (s *Store) Raw(q string, params ...sqltypes.Value) (*exec.Relation, error) {
	return s.observeRaw(func() (*exec.Relation, error) {
		return s.DB.Query(q, params...)
	})
}

// RawTraced is Raw plus the access-path trace (EXPLAIN ANALYZE).
func (s *Store) RawTraced(q string, params ...sqltypes.Value) (*exec.Relation, []string, error) {
	var trace []string
	rel, err := s.observeRaw(func() (*exec.Relation, error) {
		var err error
		var r *exec.Relation
		r, trace, err = s.DB.QueryTraced(q, params...)
		return r, err
	})
	return rel, trace, err
}
