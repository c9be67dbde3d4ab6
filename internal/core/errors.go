package core

// errors.go classifies errors on the query surface. Historically every
// failure came back as an opaque fmt.Errorf, so callers (the serving layer in
// particular) could only string-match to tell a caller mistake from an
// internal failure. Caller mistakes — an out-of-range stop id, an unknown
// target set, version or explain name, a k outside the set's materialized
// range — now wrap ErrInvalidArgument, so errors.Is gives a deterministic
// 400-vs-500 split without touching the error texts.

import (
	"errors"
	"fmt"

	"ptldb/internal/timetable"
)

// ErrInvalidArgument marks errors caused by the caller's arguments rather
// than by the store: test with errors.Is (or IsInvalidArgument). Everything
// not wrapping it is an internal failure.
var ErrInvalidArgument = errors.New("invalid argument")

// IsInvalidArgument reports whether err is a caller mistake on the query
// surface (bad stop id, unknown target set/version/explain name, k out of
// range) as opposed to an internal failure.
func IsInvalidArgument(err error) bool { return errors.Is(err, ErrInvalidArgument) }

// invalidf builds a caller-mistake error: the formatted message with
// ErrInvalidArgument in its wrap chain. Only failure paths call it, so the
// query hot paths stay allocation-free.
func invalidf(format string, a ...any) error {
	return fmt.Errorf("core: "+format+": %w", append(a, ErrInvalidArgument)...)
}

// checkStop validates a query's stop id against the store's stop range.
// Out-of-range ids used to fall through to the label tables and come back as
// an empty answer; classifying them up front lets the server distinguish "no
// journey" from "no such stop".
func (s *Store) checkStop(v timetable.StopID) error {
	if v < 0 || int(v) >= s.meta.Stops {
		return invalidf("stop id %d outside [0, %d)", int64(v), s.meta.Stops)
	}
	return nil
}

// checkSet validates a kNN or one-to-many query's stop and target set, and
// returns the set's entry in the statement table.
func (s *Store) checkSet(set string, q timetable.StopID) (*setStmts, error) {
	if err := s.checkStop(q); err != nil {
		return nil, err
	}
	e, ok := s.ver.sets[set]
	if !ok {
		return nil, invalidf("unknown target set %q", set)
	}
	return e, nil
}

// checkStops validates every stop id of a v2v query.
func (s *Store) checkStops(src, dst timetable.StopID) error {
	if err := s.checkStop(src); err != nil {
		return err
	}
	return s.checkStop(dst)
}
