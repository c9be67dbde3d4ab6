package bench

// vcache.go is the resident-vector-cache experiment behind ptldb-bench
// -exp vcache: warm kNN-EA queries (the heaviest per-query read pattern, one
// label lookup plus a condensed-table probe) measured without a cache (a
// negative budget) and at 50% and 100% of the measured vector working set, plus an eviction-thrash row
// with the budget one notch below the working set so the clock hand churns.
// Unlike every other experiment, the measured passes run WARM — the point of
// the cache is the steady state after materialization — so this file owns
// its measurement loop instead of using MeasureQueries (which drops caches).

import (
	"fmt"
	"time"

	"ptldb"
)

// vcacheStats is the counter delta of one measured pass.
type vcacheStats struct {
	hits, misses, evictions uint64
	resident                int64
}

// Vcache measures warm kNN-EA latency across vector-cache budgets on the
// first configured city. Row "segments (no cache)" is the baseline (the
// columnar-segment read path); "vcache 100%" must beat it by the win column.
func (w *Workspace) Vcache() (*Table, error) {
	city := w.cfg.Cities[0]
	ds, err := w.Dataset(city)
	if err != nil {
		return nil, err
	}
	// Materialize the condensed kNN tables once, outside any measurement.
	setup, err := w.Open(ds, "ram")
	if err != nil {
		return nil, err
	}
	set, err := w.EnsureTargetSet(ds, setup, 0.01, 4)
	if err != nil {
		setup.Close()
		return nil, err
	}
	if err := setup.Close(); err != nil {
		return nil, err
	}

	wl := w.NewWorkload(ds, w.cfg.Queries)
	n := w.cfg.Queries

	open := func(budget int64) (*ptldb.DB, error) {
		return ptldb.Open(ds.Dir, ptldb.Config{
			Device: "ssd", PoolPages: w.cfg.PoolPages,
			DisableFusedExec: w.cfg.FusedOff, VectorCacheBytes: budget,
			TraceHook: w.cfg.TraceHook,
		})
	}
	// warm runs one untimed pass (materialization, pool warm-up), then times
	// a second full pass; the per-query figure is wall clock plus simulated
	// device time, the same currency as every other experiment.
	warm := func(db *ptldb.DB) (time.Duration, vcacheStats, error) {
		var st vcacheStats
		pass := func() error {
			for i := 0; i < n; i++ {
				if _, err := db.EAKNN(set, wl.Sources[i], wl.Starts[i], 4); err != nil {
					return err
				}
			}
			return nil
		}
		if err := pass(); err != nil {
			return 0, st, err
		}
		st0, err := db.Stats()
		if err != nil {
			return 0, st, err
		}
		before := db.Snapshot()
		start := time.Now()
		if err := pass(); err != nil {
			return 0, st, err
		}
		wall := time.Since(start)
		st1, err := db.Stats()
		if err != nil {
			return 0, st, err
		}
		after := db.Snapshot()
		if after.VCache != nil {
			st.resident = after.VCache.ResidentBytes
			if before.VCache != nil {
				st.hits = after.VCache.Hits - before.VCache.Hits
				st.misses = after.VCache.Misses - before.VCache.Misses
				st.evictions = after.VCache.Evictions - before.VCache.Evictions
			}
		}
		per := (wall + (st1.SimulatedIO - st0.SimulatedIO)) / time.Duration(n)
		return per, st, nil
	}

	// Pass 1: size the working set. A budget far above any plausible label
	// volume keeps every touched table resident; ResidentBytes after a full
	// warm pass IS the vector working set of this workload.
	probe, err := open(1 << 40)
	if err != nil {
		return nil, err
	}
	_, probeStats, err := warm(probe)
	if err != nil {
		probe.Close()
		return nil, err
	}
	if err := probe.Close(); err != nil {
		return nil, err
	}
	working := probeStats.resident
	if working <= 0 {
		return nil, fmt.Errorf("bench: vcache working set measured as %d bytes; cache never engaged", working)
	}

	type budgetRow struct {
		label  string
		budget int64
	}
	// The thrash budget is one byte short of the working set: every table
	// still fits alone (so nothing is sticky-declined as too-big), but the
	// full set does not, so the clock hand churns on every query. A larger
	// shortfall would undershoot the biggest label table and quietly turn
	// the row into a segments measurement.
	rows := []budgetRow{
		{"segments (no cache)", -1},
		{"vcache 50%", working / 2},
		{"vcache thrash (1 B short)", working - 1},
		{"vcache 100%", working},
	}
	t := &Table{
		ID:    "vcache",
		Title: fmt.Sprintf("warm kNN-EA (k=4, D=0.01) on %s across vector-cache budgets", city),
		Columns: []string{"configuration", "budget", "warm ns/op", "vs segments",
			"hits", "misses", "evictions", "resident bytes"},
		Notes: []string{
			fmt.Sprintf("vector working set of this workload: %d bytes (every touched table resident).", working),
			fmt.Sprintf("%d queries per pass; one untimed warm pass precedes each measured pass.", n),
			"warm ns/op is wall clock + simulated SSD time per query; hits/misses/evictions are the measured pass's deltas.",
		},
	}
	var base time.Duration
	for _, r := range rows {
		db, err := open(r.budget)
		if err != nil {
			return nil, err
		}
		per, st, err := warm(db)
		if err != nil {
			db.Close()
			return nil, err
		}
		if err := db.Close(); err != nil {
			return nil, err
		}
		vs := "1.0x"
		if r.budget < 0 {
			base = per
		} else if per > 0 {
			vs = speedup(base, per)
		}
		t.Rows = append(t.Rows, []string{
			r.label,
			fmt.Sprintf("%d", r.budget),
			fmt.Sprintf("%d", per.Nanoseconds()),
			vs,
			fmt.Sprintf("%d", st.hits),
			fmt.Sprintf("%d", st.misses),
			fmt.Sprintf("%d", st.evictions),
			fmt.Sprintf("%d", st.resident),
		})
	}
	return t, nil
}
