package core

import (
	"fmt"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/timetable"
)

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
	return s.queryScalar(obs.CodeV2VEA, s.ver.v2v[v2vEA],
		sqltypes.NewInt(int64(src)), sqltypes.NewInt(int64(dst)), sqltypes.NewInt(int64(t)))
}

// LatestDeparture answers LD(s, g, t) with Code 1.
func (s *Store) LatestDeparture(src, dst timetable.StopID, t timetable.Time) (dep timetable.Time, ok bool, err error) {
	if err := s.checkStops(src, dst); err != nil {
		return 0, false, err
	}
	return s.queryScalar(obs.CodeV2VLD, s.ver.v2v[v2vLD],
		sqltypes.NewInt(int64(src)), sqltypes.NewInt(int64(dst)), sqltypes.NewInt(int64(t)))
}

// ShortestDuration answers SD(s, g, t, tEnd) with Code 1.
func (s *Store) ShortestDuration(src, dst timetable.StopID, t, tEnd timetable.Time) (dur timetable.Time, ok bool, err error) {
	if err := s.checkStops(src, dst); err != nil {
		return 0, false, err
	}
	return s.queryScalar(obs.CodeV2VSD, s.ver.v2v[v2vSD],
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

// checkK is checkSet for a kNN query, which also validates k against the
// set's kmax.
func (s *Store) checkK(set string, q timetable.StopID, k int) (*setStmts, error) {
	e, err := s.checkSet(set, q)
	if err != nil {
		return nil, err
	}
	if k < 1 || k > e.kmax {
		return nil, invalidf("k=%d outside [1, kmax=%d] of target set %q", k, e.kmax, set)
	}
	return e, nil
}

// EAKNNNaive answers EA-kNN(q, T, t, k) with the naive Code 2 query.
func (s *Store) EAKNNNaive(set string, q timetable.StopID, t timetable.Time, k int) ([]Result, error) {
	e, err := s.checkK(set, q, k)
	if err != nil {
		return nil, err
	}
	return s.queryResults(obs.CodeKNNNaiveEA, e.stmts[knnNaiveEA],
		sqltypes.NewInt(int64(q)), sqltypes.NewInt(int64(t)), sqltypes.NewInt(int64(k)))
}

// LDKNNNaive answers LD-kNN(q, T, t, k) with the naive LD analogue of
// Code 2.
func (s *Store) LDKNNNaive(set string, q timetable.StopID, t timetable.Time, k int) ([]Result, error) {
	e, err := s.checkK(set, q, k)
	if err != nil {
		return nil, err
	}
	return s.queryResults(obs.CodeKNNNaiveLD, e.stmts[knnNaiveLD],
		sqltypes.NewInt(int64(q)), sqltypes.NewInt(int64(t)), sqltypes.NewInt(int64(k)))
}

// EAKNN answers EA-kNN(q, T, t, k) with the optimized Code 3 query.
func (s *Store) EAKNN(set string, q timetable.StopID, t timetable.Time, k int) ([]Result, error) {
	e, err := s.checkK(set, q, k)
	if err != nil {
		return nil, err
	}
	return s.queryResults(obs.CodeKNNEA, e.stmts[knnEA],
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
	e, err := s.checkK(set, q, k)
	if err != nil {
		return nil, err
	}
	return s.queryResults(obs.CodeKNNLD, e.stmts[knnLD],
		sqltypes.NewInt(int64(q)), sqltypes.NewInt(s.clampLD(t)), sqltypes.NewInt(int64(k)))
}

// EAOTM answers EA-OTM(q, T, t) with the one-to-many variant of Code 3,
// returning the earliest arrival for every reachable target.
func (s *Store) EAOTM(set string, q timetable.StopID, t timetable.Time) ([]Result, error) {
	e, err := s.checkSet(set, q)
	if err != nil {
		return nil, err
	}
	return s.queryResults(obs.CodeOTMEA, e.stmts[otmEA],
		sqltypes.NewInt(int64(q)), sqltypes.NewInt(int64(t)))
}

// LDOTM answers LD-OTM(q, T, t) with the one-to-many variant of Code 4.
func (s *Store) LDOTM(set string, q timetable.StopID, t timetable.Time) ([]Result, error) {
	e, err := s.checkSet(set, q)
	if err != nil {
		return nil, err
	}
	return s.queryResults(obs.CodeOTMLD, e.stmts[otmLD],
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
