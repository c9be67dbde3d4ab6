package ptldb

// old_image_test.go: a directory built before the label tables declared
// their run order differs from one built now only in catalog.json. It must
// keep opening and answer every vertex-to-vertex query identically — through
// the hash join, the one join that assumes no order — and EXPLAIN must say
// so.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptldb/internal/csa"
	"ptldb/internal/sqldb"
	"ptldb/internal/timetable"
)

// v2vAnswers runs a seeded battery of EA, LD and SD queries, checks each
// against the CSA oracle and returns the answers as printable records. It
// also requires every v2v plan to render join and the handle to have bailed
// out of the fused path never.
func v2vAnswers(t *testing.T, db *DB, tt *Network, join string) []string {
	t.Helper()
	for _, name := range []string{"v2v-ea", "v2v-ld", "v2v-sd"} {
		if plan, err := db.ExplainPrepared(name); err != nil || !strings.Contains(plan, join+" out.hub = in.hub") {
			t.Errorf("explain %s (%v) does not show %s:\n%s", name, err, join, plan)
		}
	}
	rng := rand.New(rand.NewSource(5))
	n, span := tt.NumStops(), int64(tt.Span())
	var out []string
	for i := 0; i < 150; i++ {
		s, g := StopID(rng.Intn(n)), StopID(rng.Intn(n))
		t0 := tt.MinTime() + Time(rng.Int63n(span+1))
		t1 := t0 + Time(rng.Int63n(span+1))
		ea, eaOK, err := db.EarliestArrival(s, g, t0)
		if err != nil {
			t.Fatal(err)
		}
		ld, ldOK, err := db.LatestDeparture(s, g, t1)
		if err != nil {
			t.Fatal(err)
		}
		sd, sdOK, err := db.ShortestDuration(s, g, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%d %d %d %d -> EA %d %v, LD %d %v, SD %d %v", s, g, t0, t1, ea, eaOK, ld, ldOK, sd, sdOK))
		if s == g {
			continue // the dummy-tuple convention, not the oracle's
		}
		wantEA, wantLD, wantSD := csa.EarliestArrival(tt, s, g, t0), csa.LatestDeparture(tt, s, g, t1), csa.ShortestDuration(tt, s, g, t0, t1)
		if eaOK != (wantEA < timetable.Infinity) || (eaOK && ea != wantEA) ||
			ldOK != (wantLD > timetable.NegInfinity) || (ldOK && ld != wantLD) ||
			sdOK != (wantSD < timetable.Infinity) || (sdOK && sd != wantSD) {
			t.Errorf("%s: %s; the oracle has EA %d, LD %d, SD %d", join, out[len(out)-1], wantEA, wantLD, wantSD)
		}
	}
	if snap := db.Snapshot(); snap.Exec.FusedBailouts != 0 || snap.Exec.FusedRuns == 0 {
		t.Errorf("%s: %d fused runs, %d bailouts; want every query fused", join, snap.Exec.FusedRuns, snap.Exec.FusedBailouts)
	}
	return out
}

func TestUndeclaredImageKeepsAnswering(t *testing.T) {
	austin, err := GenerateCity("Austin", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, tt := range map[string]*Network{"figure1": timetable.PaperExample(), "austin": austin} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Create(dir, tt, Config{Device: "ram"})
			if err != nil {
				t.Fatal(err)
			}
			declared := v2vAnswers(t, db, tt, "RunJoin")
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			// Take the declaration out of the catalog: what is left is, byte
			// for byte, the catalog a build from before it wrote.
			path := filepath.Join(dir, "catalog.json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var defs []sqldb.TableDef
			if err := json.Unmarshal(data, &defs); err != nil {
				t.Fatal(err)
			}
			for i := range defs {
				defs[i].RunOrder = nil
			}
			if data, err = json.MarshalIndent(defs, "", "  "); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(data), "run_order") {
				t.Fatal("an undeclared table still writes the catalog field")
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			if db, err = Open(dir, Config{Device: "ram"}); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			undeclared := v2vAnswers(t, db, tt, "HashJoin")
			for i := range declared {
				if declared[i] != undeclared[i] {
					t.Errorf("answer %d differs:\n  declared:   %s\n  undeclared: %s", i, declared[i], undeclared[i])
				}
			}
		})
	}
}
