package ptldb

// fused_allocs_test.go is the fused-path allocation ratchet: the observability
// counters (and any future hot-path change) must not add a single allocation
// per query. The budgets are the measured steady-state allocs/op of each
// fused query kind; scripts/check.sh runs this test without the race detector
// (instrumented builds perturb allocation counts, so it skips itself there).

import (
	"fmt"
	"testing"

	"ptldb/internal/sqldb/exec"
	"ptldb/internal/sqldb/sqltypes"
)

// fusedAllocBudgets pin the steady-state allocations per query of each fused
// Code on the small benchmark city. A regression here means something on the
// fused hot path started escaping to the heap — fix the escape, don't raise
// the budget. The same budgets apply to both label tiers: a warm vector-cache
// hit serves slice views and must not allocate a single byte more than the
// segment path it replaces. Every kind works in pooled query state, so what
// is left is the result itself (relation, row headers, one value array) plus
// the facade's parameter and answer conversions.
var fusedAllocBudgets = []struct {
	name   string
	budget float64
}{
	{"v2v-ea", 4},
	{"v2v-sd", 4},
	{"knn-naive-ea", 6},
	{"knn-ea", 5},
	{"knn-ld", 5},
	{"otm-ea", 5},
	{"otm-ld", 5},
}

func TestFusedAllocsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	tt, err := GenerateCity("Salt Lake City", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := createAndWrite(t, dir, tt, Config{Device: "ram"}, addPOI([]StopID{1, 3, 5, 7, 11, 13}, 4)).Close(); err != nil {
		t.Fatal(err)
	}

	// The budgets hold on both label tiers: the default handle serves warm
	// queries from resident vectors, the negative-budget handle from
	// segments.
	for _, cfg := range []struct {
		tier string
		conf Config
	}{
		{"vcache", Config{Device: "ram"}},
		{"segments", Config{Device: "ram", VectorCacheBytes: -1}},
	} {
		t.Run(cfg.tier, func(t *testing.T) {
			db, err := Open(dir, cfg.conf)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			s, g := StopID(2), StopID(9)
			tq := tt.MinTime() + 600
			te := tt.MaxTime()
			queries := map[string]func() error{
				"v2v-ea":       func() error { _, _, err := db.EarliestArrival(s, g, tq); return err },
				"v2v-sd":       func() error { _, _, err := db.ShortestDuration(s, g, tq, te); return err },
				"knn-naive-ea": func() error { _, err := db.EAKNNNaive("poi", s, tq, 4); return err },
				"knn-ea":       func() error { _, err := db.EAKNN("poi", s, tq, 4); return err },
				"knn-ld":       func() error { _, err := db.LDKNN("poi", s, te, 4); return err },
				"otm-ea":       func() error { _, err := db.EAOTM("poi", s, tq); return err },
				"otm-ld":       func() error { _, err := db.LDOTM("poi", s, te); return err },
			}
			for _, tc := range fusedAllocBudgets {
				fn := queries[tc.name]
				// Warm the scratch buffers, buffer pool and (on the default
				// handle) the vector cache, so the measurement sees only
				// steady-state work. The statements were prepared at Open.
				for i := 0; i < 3; i++ {
					if err := fn(); err != nil {
						t.Fatal(tc.name, err)
					}
				}
				got := testing.AllocsPerRun(100, func() {
					if err := fn(); err != nil {
						t.Fatal(tc.name, err)
					}
				})
				if got > tc.budget {
					t.Errorf("%s (%s): %v allocs/query, budget %v — the fused hot path regressed",
						tc.name, cfg.tier, got, tc.budget)
				}
			}
			// The witness is a second output of the run-order join, not a
			// second kernel: executing its statement allocates no more than
			// executing v2v-ea (the journey's own stop and trip slices are the
			// caller's, not the executor's).
			params := []sqltypes.Value{sqltypes.NewInt(int64(s)), sqltypes.NewInt(int64(g)), sqltypes.NewInt(int64(tq))}
			stmtAllocs := func(text string) float64 {
				stmt, err := db.Store().DB.Prepare(fmt.Sprintf(text, "lout", "lin"))
				if err != nil || !stmt.Fused() {
					t.Fatal(stmt, err)
				}
				return testing.AllocsPerRun(100, func() {
					if _, err := stmt.Query(params...); err != nil {
						t.Fatal(err)
					}
				})
			}
			if ea, witness := stmtAllocs(exec.SQLV2VEA), stmtAllocs(exec.SQLV2VEAWitness); witness > ea {
				t.Errorf("witness statement (%s): %v allocs/execution, v2v-ea %v", cfg.tier, witness, ea)
			}
			if cfg.tier == "vcache" {
				snap := db.Snapshot()
				if snap.VCache == nil || snap.VCache.Hits == 0 {
					t.Error("vcache tier measurement never hit the vector cache")
				}
			}
		})
	}
}
