package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ptldb/internal/order"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/sqldb/storage"
	"ptldb/internal/timetable"
	"ptldb/internal/ttl"
)

// rekeyedCopy writes the database in dir into a fresh directory, table by
// table, with the set's four condensed tables under the reverse of their
// declared key — same rows, the other order on disk and in the definition:
// (hub, bucket), the key no builder has written since the tables became
// bucket-major.
func rekeyedCopy(t *testing.T, dir, set string) string {
	t.Helper()
	src, err := sqldb.Open(dir, sqldb.Options{Device: storage.RAM, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	out := t.TempDir()
	db, err := sqldb.Open(out, sqldb.Options{Device: storage.RAM, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rekey := map[string]bool{}
	for _, prefix := range []string{"knn_ea", "knn_ld", "otm_ea", "otm_ld"} {
		rekey[prefix+"_"+set] = true
	}
	names := src.Tables()
	sort.Strings(names)
	for _, name := range names {
		tbl, _ := src.Table(name)
		var rows []sqltypes.Row
		if err := tbl.Scan(func(r sqltypes.Row) error { rows = append(rows, r); return nil }); err != nil {
			t.Fatal(err)
		}
		def := tbl.Def()
		if rekey[name] {
			def.PK = []string{def.PK[1], def.PK[0]}
		}
		pk := tbl.PKCols()
		if rekey[name] {
			pk = []int{pk[1], pk[0]}
		}
		sort.Slice(rows, func(i, j int) bool {
			if a, b := rows[i][pk[0]].I, rows[j][pk[0]].I; a != b || len(pk) == 1 {
				return a < b
			}
			return rows[i][pk[1]].I < rows[j][pk[1]].I
		})
		if err := db.Load(1, sqldb.TableLoad{Def: def, Rows: func() ([]sqltypes.Row, error) { return rows, nil }}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCondensedKeyOrderDifferential: the condensed kernel probes in the one
// key order the builders declare, (bucket, hub). An image whose condensed
// tables hold the same rows keyed (hub, bucket) is refused at Open with an
// error naming the table and its key — never answered from in the wrong order
// — while the reference executor, which plans from whatever key is declared,
// answers it as the original is answered.
func TestCondensedKeyOrderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tt := randomTimetable(rng, 20, 420)
	dir := t.TempDir()
	db, err := sqldb.Open(dir, sqldb.Options{Device: storage.RAM, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Build(db, ttl.Build(tt, order.ByNeighborDegree(tt)).Augment(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const kmax = 4
	if err := w.AddTargetSet("poi", []timetable.StopID{1, 4, 6, 9, 12, 15, 18}, kmax); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	open := func(dir string, reference bool) (*Store, error) {
		db, err := sqldb.Open(dir, sqldb.Options{Device: storage.RAM, PoolPages: 1024, ReferenceExec: reference})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return Open(db, nil)
	}
	rekeyedDir := rekeyedCopy(t, dir, "poi")
	if _, err := open(rekeyedDir, false); err == nil || !strings.Contains(err.Error(), `"knn_ea_poi"`) || !strings.Contains(err.Error(), "primary key is not") {
		t.Fatalf("the rekeyed copy opened on the fused kernel: %v; want an error naming the table and its key", err)
	}
	built, err := open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	rekeyedRef, err := open(rekeyedDir, true)
	if err != nil {
		t.Fatal(err)
	}
	pk := func(st *Store) []string {
		tbl, _ := st.DB.Table("knn_ea_poi")
		return tbl.Def().PK
	}
	if a, b := pk(built), pk(rekeyedRef); a[0] != b[1] || a[1] != b[0] {
		t.Fatalf("the copy is keyed %v, the original %v", b, a)
	}

	for trial := 0; trial < 20; trial++ {
		q := timetable.StopID(rng.Intn(tt.NumStops()))
		tq := timetable.Time(rng.Intn(90000))
		k := 1 + rng.Intn(kmax)
		shapes := []struct {
			table string
			run   func(*Store) ([]Result, error)
		}{
			{"knn_ea_poi", func(s *Store) ([]Result, error) { return s.EAKNN("poi", q, tq, k) }},
			{"knn_ld_poi", func(s *Store) ([]Result, error) { return s.LDKNN("poi", q, tq, k) }},
			{"otm_ea_poi", func(s *Store) ([]Result, error) { return s.EAOTM("poi", q, tq) }},
			{"otm_ld_poi", func(s *Store) ([]Result, error) { return s.LDOTM("poi", q, tq) }},
		}
		for _, sh := range shapes {
			want, err := sh.run(built)
			if err != nil {
				t.Fatalf("%s as built: %v", sh.table, err)
			}
			if got, err := sh.run(rekeyedRef); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s q=%d t=%d k=%d: rekeyed on the reference executor answers %v, %v; as built answers %v",
					sh.table, q, tq, k, got, err, want)
			}
		}
	}
}
