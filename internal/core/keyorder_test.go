package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ptldb/internal/order"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// rekeyedCopy copies the database in dir and reloads the set's four condensed
// tables under the reverse of their declared key — same rows, the other order
// on disk and in catalog.json. A store built before the tables became
// bucket-major is exactly such a directory.
func rekeyedCopy(t *testing.T, dir, set string) string {
	t.Helper()
	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := sqldb.Open(out, sqldb.Options{Device: storage.RAM, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"knn_ea", "knn_ld", "otm_ea", "otm_ld"} {
		name := prefix + "_" + set
		tbl, ok := db.Table(name)
		if !ok {
			t.Fatalf("no table %s", name)
		}
		var rows []sqltypes.Row
		if err := tbl.Scan(func(r sqltypes.Row) error { rows = append(rows, r); return nil }); err != nil {
			t.Fatal(err)
		}
		def := tbl.Def()
		def.PK = []string{def.PK[1], def.PK[0]}
		if err := db.DropTable(name); err != nil {
			t.Fatal(err)
		}
		rekeyed, err := db.CreateTable(def)
		if err != nil {
			t.Fatal(err)
		}
		pk := rekeyed.PKCols()
		sort.Slice(rows, func(i, j int) bool {
			if a, b := rows[i][pk[0]].I, rows[j][pk[0]].I; a != b {
				return a < b
			}
			return rows[i][pk[1]].I < rows[j][pk[1]].I
		})
		if err := rekeyed.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCondensedKeyOrderDifferential: the condensed kernel follows the key the
// table declares, so the same rows keyed (bucket, hub) and (hub, bucket)
// answer all four condensed shapes identically, fused and on the reference
// executor, and neither key order makes the fused path bail.
func TestCondensedKeyOrderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tt := randomTimetable(rng, 20, 420)
	dir := t.TempDir()
	db, err := sqldb.Open(dir, sqldb.Options{Device: storage.RAM, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Build(db, ttl.Build(tt, order.ByNeighborDegree(tt)).Augment(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const kmax = 4
	if err := st.AddTargetSet("poi", []timetable.StopID{1, 4, 6, 9, 12, 15, 18}, kmax); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var stores []*Store
	var names []string
	for _, d := range []struct{ name, dir string }{{"as built", dir}, {"rekeyed", rekeyedCopy(t, dir, "poi")}} {
		for _, reference := range []bool{false, true} {
			db, err := sqldb.Open(d.dir, sqldb.Options{Device: storage.RAM, PoolPages: 1024, ReferenceExec: reference})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			st, err := Open(db)
			if err != nil {
				t.Fatal(err)
			}
			stores = append(stores, st)
			names = append(names, fmt.Sprintf("%s, reference executor %v", d.name, reference))
		}
	}
	pk := func(st *Store) []string {
		tbl, _ := st.DB.Table("knn_ea_poi")
		return tbl.Def().PK
	}
	if a, b := pk(stores[0]), pk(stores[2]); a[0] != b[1] || a[1] != b[0] {
		t.Fatalf("the copy is keyed %v, the original %v", b, a)
	}

	for trial := 0; trial < 60; trial++ {
		q := timetable.StopID(rng.Intn(tt.NumStops()))
		tq := timetable.Time(rng.Intn(90000))
		k := 1 + rng.Intn(kmax)
		shapes := []struct {
			kind string
			run  func(*Store) ([]Result, error)
		}{
			{"cond-knn-ea", func(s *Store) ([]Result, error) { return s.EAKNN("poi", q, tq, k) }},
			{"cond-knn-ld", func(s *Store) ([]Result, error) { return s.LDKNN("poi", q, tq, k) }},
			{"cond-otm-ea", func(s *Store) ([]Result, error) { return s.EAOTM("poi", q, tq) }},
			{"cond-otm-ld", func(s *Store) ([]Result, error) { return s.LDOTM("poi", q, tq) }},
		}
		for _, sh := range shapes {
			var want []Result
			for i, st := range stores {
				got, err := sh.run(st)
				if err != nil {
					t.Fatalf("%s (%s): %v", sh.kind, names[i], err)
				}
				if i == 0 {
					want = got
				} else if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s q=%d t=%d k=%d: %s answers %v, %s answers %v",
						sh.kind, q, tq, k, names[i], got, names[0], want)
				}
			}
		}
	}
	for i, st := range stores {
		fused, general := st.DB.FusedStats()
		if reference := i%2 == 1; reference && fused != 0 {
			t.Errorf("%s: %d fused runs, want 0", names[i], fused)
		} else if !reference && (fused == 0 || general != 0) {
			t.Errorf("%s: %d fused runs, %d general runs; want every query fused", names[i], fused, general)
		}
	}
}
