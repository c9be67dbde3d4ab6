package core

import (
	"errors"
	"testing"

	"ptldb/internal/timetable"
)

// buildErrStore materializes the Figure-1 example with one target set, the
// fixture every classification case below queries against.
func buildErrStore(t *testing.T) *Store {
	t.Helper()
	s, _ := paperStore(t, addSet("poi", []timetable.StopID{2, 5}, 2))
	return s
}

// TestInvalidArgumentClassification pins the 400-side of the query surface:
// every caller mistake must wrap ErrInvalidArgument, and well-formed queries
// must not.
func TestInvalidArgumentClassification(t *testing.T) {
	s := buildErrStore(t)
	n := timetable.StopID(s.meta.Stops)

	invalid := []struct {
		name string
		err  func() error
	}{
		{"ea stop out of range", func() error { _, _, err := s.EarliestArrival(n, 0, 0); return err }},
		{"ea negative stop", func() error { _, _, err := s.EarliestArrival(0, -1, 0); return err }},
		{"ld stop out of range", func() error { _, _, err := s.LatestDeparture(0, n+5, 0); return err }},
		{"sd stop out of range", func() error { _, _, err := s.ShortestDuration(n, 0, 0, 86400); return err }},
		{"knn unknown set", func() error { _, err := s.EAKNN("nope", 0, 0, 1); return err }},
		{"knn k too large", func() error { _, err := s.EAKNN("poi", 0, 0, 3); return err }},
		{"knn k zero", func() error { _, err := s.LDKNN("poi", 0, 86400, 0); return err }},
		{"knn naive unknown set", func() error { _, err := s.EAKNNNaive("nope", 0, 0, 1); return err }},
		{"knn stop out of range", func() error { _, err := s.LDKNNNaive("poi", n, 86400, 1); return err }},
		{"otm unknown set", func() error { _, err := s.EAOTM("nope", 0, 0); return err }},
		{"otm stop out of range", func() error { _, err := s.LDOTM("poi", -2, 86400); return err }},
		{"unknown version", func() error { _, err := s.Version("weekend"); return err }},
		{"explain unknown kind", func() error { _, err := s.ExplainPrepared("bogus:poi"); return err }},
		{"explain unknown set", func() error { _, err := s.ExplainPrepared("knn-ea:nope"); return err }},
		{"explain missing set", func() error { _, err := s.ExplainPrepared("otm-ld"); return err }},
	}
	for _, tc := range invalid {
		err := tc.err()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !IsInvalidArgument(err) {
			t.Errorf("%s: %v not classified as invalid argument", tc.name, err)
		}
	}

	valid := []struct {
		name string
		err  func() error
	}{
		{"ea in range", func() error { _, _, err := s.EarliestArrival(0, n-1, 0); return err }},
		{"knn ok", func() error { _, err := s.EAKNN("poi", 1, 0, 2); return err }},
		{"otm ok", func() error { _, err := s.LDOTM("poi", 1, 86400); return err }},
		{"explain ok", func() error { _, err := s.ExplainPrepared("knn-ld:poi"); return err }},
	}
	for _, tc := range valid {
		if err := tc.err(); err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
	}

	// The sentinel must survive one extra wrap, the shape the serving layer
	// sees after its own annotation.
	wrapped := func() error {
		_, _, err := s.EarliestArrival(n, 0, 0)
		return errors.Join(errors.New("serve: query failed"), err)
	}()
	if !IsInvalidArgument(wrapped) {
		t.Errorf("wrapped invalid-argument error lost its classification: %v", wrapped)
	}
}
