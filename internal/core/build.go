package core

import (
	"fmt"
	"sort"

	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/timetable"
)

// targetTuple is one L_in tuple of a target stop, reorganized around its hub
// (the paper builds all its auxiliary tables from exactly this projection).
type targetTuple struct {
	td, ta timetable.Time
	v      timetable.StopID
}

// AddTargetSet registers a target set and builds its five auxiliary tables:
// the naive per-(hub, t_d) table of Section 3.2.1, which the EA and the LD
// naive statements both read, the hour-condensed knn_ea/knn_ld tables of
// Table 5 and the one-to-many otm_ea/otm_ld tables of Table 6. kmax bounds
// the k serviceable by the kNN tables.
//
// The tables are derived purely from the targets' rows of the lin table —
// the paper notes they can equivalently be created by plain SQL over lin
// (the statements are omitted there for space); the builders below are the
// straightforward procedural equivalent, and their output is validated
// against a specification oracle in the tests.
func (s *Store) AddTargetSet(name string, targets []timetable.StopID, kmax int) error {
	if !setNameRE.MatchString(name) {
		return fmt.Errorf("core: invalid target-set name %q", name)
	}
	if _, dup := s.vm().TargetSets[name]; dup {
		return fmt.Errorf("core: target set %q already exists", name)
	}
	if kmax < 1 {
		return fmt.Errorf("core: kmax must be positive")
	}
	targets = sortedCopy(targets)
	if len(targets) == 0 {
		return fmt.Errorf("core: empty target set")
	}
	for _, w := range targets {
		if int(w) < 0 || int(w) >= s.meta.Stops {
			return fmt.Errorf("core: target %d out of range", w)
		}
	}
	lin, ok := s.DB.Table(s.linTable())
	if !ok {
		return fmt.Errorf("core: %s table missing", s.linTable())
	}

	// Group the targets' L_in tuples (dummies included — they realize the
	// paper's case of reaching a target directly, with the target itself as
	// hub) by hub, sorted by (td, ta, v).
	byHub := map[timetable.StopID][]targetTuple{}
	for _, w := range targets {
		row, found, err := lin.LookupPK([]int64{int64(w)})
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("core: stop %d has no lin row", w)
		}
		hubs, tds, tas := row[1].A, row[2].A, row[3].A
		for i := range hubs {
			h := timetable.StopID(hubs[i])
			byHub[h] = append(byHub[h], targetTuple{
				td: timetable.Time(tds[i]), ta: timetable.Time(tas[i]), v: w,
			})
		}
	}
	hubs := make([]timetable.StopID, 0, len(byHub))
	for h := range byHub {
		hubs = append(hubs, h)
		ts := byHub[h]
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].td != ts[j].td {
				return ts[i].td < ts[j].td
			}
			if ts[i].ta != ts[j].ta {
				return ts[i].ta < ts[j].ta
			}
			return ts[i].v < ts[j].v
		})
	}
	sort.Slice(hubs, func(i, j int) bool { return hubs[i] < hubs[j] })

	// Create the five auxiliary tables serially (the catalog is shared
	// state), then compute and bulk-load each one as an independent job on
	// the worker pool. The otm tables share the knn layout with the best
	// entry per target instead of the top-k (paper Section 3.3): kmax = |T|.
	var tbls [numSetTables]*sqldb.Table
	for i, def := range s.targetSetDefs(name, len(targets)) {
		var err error
		if tbls[i], err = s.DB.CreateTable(def); err != nil {
			return err
		}
	}
	kmaxOTM := len(targets)
	jobs := []func() error{
		func() error { return tbls[naiveTable].BulkLoad(naiveRows(hubs, byHub, kmax)) },
		func() error { return tbls[knnEATable].BulkLoad(s.condensedEARows(hubs, byHub, kmax)) },
		func() error { return tbls[knnLDTable].BulkLoad(s.condensedLDRows(hubs, byHub, kmax)) },
		func() error { return tbls[otmEATable].BulkLoad(s.condensedEARows(hubs, byHub, kmaxOTM)) },
		func() error { return tbls[otmLDTable].BulkLoad(s.condensedLDRows(hubs, byHub, kmaxOTM)) },
	}
	if err := sqldb.RunJobs(s.workers, jobs); err != nil {
		return err
	}
	if err := s.prepareSet(name, kmax); err != nil {
		return err
	}

	ts := TargetSetMeta{KMax: kmax, Targets: make([]int32, len(targets))}
	for i, w := range targets {
		ts.Targets[i] = int32(w)
	}
	s.vm().TargetSets[name] = ts
	return s.saveMeta()
}

// setTableKind indexes a target set's five tables: the naive table both naive
// statements read, then the condensed kNN and one-to-many pairs.
type setTableKind int

const (
	naiveTable setTableKind = iota
	knnEATable
	knnLDTable
	otmEATable
	otmLDTable
	numSetTables
)

// targetSetDefs are the five auxiliary tables of a target set of size targets
// under the bound version. A caller after the names alone may pass any size.
func (s *Store) targetSetDefs(set string, targets int) [numSetTables]sqldb.TableDef {
	n, w := s.meta.Stops, int64(s.meta.BucketSeconds)
	return [numSetTables]sqldb.TableDef{
		naiveTable: naiveDef(s.setTable("knn_naive", set), n),
		knnEATable: condensedEADef(s.setTable("knn_ea", set), n, 0, w),
		knnLDTable: condensedLDDef(s.setTable("knn_ld", set), n),
		otmEATable: condensedEADef(s.setTable("otm_ea", set), n, targets, w),
		otmLDTable: condensedLDDef(s.setTable("otm_ld", set), n),
	}
}

// targetBound is the declaration every target-set table makes of the columns
// that hold targets: stop ids, so below the number of stops — and, when count
// is positive, at most count distinct ones. BulkLoad holds the builders to it,
// the kNN / one-to-many kernels size their per-target array by the bound, and
// the EA one-to-many kernel stops its sweep by the count.
func targetBound(stops, count int, cols ...string) *sqldb.TargetIDs {
	return &sqldb.TargetIDs{Columns: cols, Bound: int64(stops), Count: int64(count)}
}

// naiveDef is the schema of knn_naive_<set>.
func naiveDef(n string, stops int) sqldb.TableDef {
	return sqldb.TableDef{
		Name:      n,
		PK:        []string{"hub", "td"},
		TargetIDs: targetBound(stops, 0, "vs"),
		Columns: []sqldb.ColumnDef{
			{Name: "hub", Type: sqltypes.Int64},
			{Name: "td", Type: sqltypes.Int64},
			{Name: "vs", Type: sqltypes.IntArray},
			{Name: "tas", Type: sqltypes.IntArray},
		},
	}
}

// naiveRows builds the knn_naive rows: one per (hub, t_d) with the top-kmax
// distinct targets by earliest arrival (Section 3.2.1, Table 4), in ascending
// (hub, td) order. One table serves both directions, because both keep
// earliest arrivals: for a fixed (hub, t_d) every candidate offers the same
// transfer window, and the smallest arrivals are the most likely to satisfy
// the LD bound t_a <= t.
func naiveRows(hubs []timetable.StopID, byHub map[timetable.StopID][]targetTuple, kmax int) []sqltypes.Row {
	var rows []sqltypes.Row
	for _, h := range hubs {
		ts := byHub[h]
		for i := 0; i < len(ts); {
			j := i
			for j < len(ts) && ts[j].td == ts[i].td {
				j++
			}
			top := bestPerTargetEA(ts[i:j], kmax)
			rows = append(rows, sqltypes.Row{
				sqltypes.NewInt(int64(h)),
				sqltypes.NewInt(int64(ts[i].td)),
				targetIDs(top),
				arrivalTimes(top),
			})
			i = j
		}
	}
	return rows
}

// bestPerTargetEA keeps, for each distinct target in ts, its earliest
// arrival, then returns the k best ordered by (arrival, target id).
func bestPerTargetEA(ts []targetTuple, k int) []Result {
	best := map[timetable.StopID]timetable.Time{}
	for _, t := range ts {
		if b, ok := best[t.v]; !ok || t.ta < b {
			best[t.v] = t.ta
		}
	}
	return topKEA(best, k)
}

func targetIDs(rs []Result) sqltypes.Value {
	a := make([]int64, len(rs))
	for i, r := range rs {
		a[i] = int64(r.Stop)
	}
	return sqltypes.NewIntArray(a)
}

func arrivalTimes(rs []Result) sqltypes.Value {
	a := make([]int64, len(rs))
	for i, r := range rs {
		a[i] = int64(r.When)
	}
	return sqltypes.NewIntArray(a)
}

// condensedEADef is the schema of a knn_ea- or otm_ea-layout table. The key
// is bucket-first because a table's rows are stored in key order and one
// query reads a few adjacent buckets of many hubs: its rows are then one
// contiguous run of the file (DESIGN.md §10.1). Every arrival a row holds is
// no earlier than the start of its bucket — the expanded arm departs inside
// it, the top-k arm in later ones, and no tuple arrives before it departs —
// and the table declares so: BulkLoad holds the builder to it, and the kNN and
// one-to-many kernels stop their sweep by it (DESIGN.md §7.4). The one-to-many
// table also declares its count of targets — the set's size, every id its rows
// can hold — by which that sweep stops; the kNN table passes 0, no count.
func condensedEADef(n string, stops, count int, width int64) sqldb.TableDef {
	return sqldb.TableDef{
		Name:      n,
		PK:        []string{"dephour", "hub"},
		TargetIDs: targetBound(stops, count, "vs", "vs_exp"),
		Floor:     &sqldb.Floor{Key: "dephour", Width: width, Columns: []string{"tas", "tas_exp"}},
		Columns: []sqldb.ColumnDef{
			{Name: "hub", Type: sqltypes.Int64},
			{Name: "dephour", Type: sqltypes.Int64},
			{Name: "vs", Type: sqltypes.IntArray},
			{Name: "tas", Type: sqltypes.IntArray},
			{Name: "tds_exp", Type: sqltypes.IntArray},
			{Name: "vs_exp", Type: sqltypes.IntArray},
			{Name: "tas_exp", Type: sqltypes.IntArray},
		},
	}
}

// condensedEARows builds knn_ea- or otm_ea-layout rows: one per
// (hub, dephour) whose exp columns expand every target tuple departing the
// hub within the bucket (ordered by t_d) and whose vs/tas columns hold the
// top-k per-target earliest arrivals over strictly later buckets
// (Theorem 3.2.2). Rows come out in ascending (dephour, hub) order.
func (s *Store) condensedEARows(hubs []timetable.StopID, byHub map[timetable.StopID][]targetTuple, k int) []sqltypes.Row {
	var rows []sqltypes.Row
	// Rows must exist for every bucket a journey can arrive at a hub in,
	// from the global earliest event: a missing row would silently drop the
	// join candidate (proof of Theorem 3.2.2).
	hmin := s.hour(s.vm().MinTime)
	for _, h := range hubs {
		ts := byHub[h] // sorted by td
		hmax := s.hour(ts[len(ts)-1].td)
		// Iterate buckets from late to early, folding each bucket's tuples
		// into the per-target future bests before emitting the row below it.
		future := map[timetable.StopID]timetable.Time{}
		idx := len(ts)
		for bucket := hmax; bucket >= hmin; bucket-- {
			// Tuples departing within this bucket: ts[lo:idx).
			lo := idx
			for lo > 0 && s.hour(ts[lo-1].td) == bucket {
				lo--
			}
			top := topKEA(future, k)
			rows = append(rows, sqltypes.Row{
				sqltypes.NewInt(int64(h)),
				sqltypes.NewInt(bucket),
				targetIDs(top),
				arrivalTimes(top),
				expColumn(ts[lo:idx], func(t targetTuple) timetable.Time { return t.td }),
				expColumn(ts[lo:idx], func(t targetTuple) timetable.Time { return timetable.Time(t.v) }),
				expColumn(ts[lo:idx], func(t targetTuple) timetable.Time { return t.ta }),
			})
			// Fold this bucket into the future set for earlier buckets.
			for _, t := range ts[lo:idx] {
				if b, ok := future[t.v]; !ok || t.ta < b {
					future[t.v] = t.ta
				}
			}
			idx = lo
		}
	}
	return bucketMajor(rows)
}

// bucketMajor reorders condensed rows built hub by hub (hubs ascending, each
// hub's buckets distinct) into ascending (bucket, hub) key order.
func bucketMajor(rows []sqltypes.Row) []sqltypes.Row {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i][1].I < rows[j][1].I })
	return rows
}

// condensedLDDef is the schema of a knn_ld- or otm_ld-layout table, keyed
// bucket-first like condensedEADef: an LD query reads one bucket of every hub
// in the label.
func condensedLDDef(n string, stops int) sqldb.TableDef {
	return sqldb.TableDef{
		Name:      n,
		PK:        []string{"arrhour", "hub"},
		TargetIDs: targetBound(stops, 0, "vs", "vs_exp"),
		Columns: []sqldb.ColumnDef{
			{Name: "hub", Type: sqltypes.Int64},
			{Name: "arrhour", Type: sqltypes.Int64},
			{Name: "vs", Type: sqltypes.IntArray},
			{Name: "tds", Type: sqltypes.IntArray},
			{Name: "tds_exp", Type: sqltypes.IntArray},
			{Name: "vs_exp", Type: sqltypes.IntArray},
			{Name: "tas_exp", Type: sqltypes.IntArray},
		},
	}
}

// condensedLDRows builds knn_ld- or otm_ld-layout rows: one per
// (hub, arrhour) whose exp columns expand the target tuples arriving within
// the bucket (ordered by t_d) and whose vs/tds columns hold the top-k
// per-target latest departures among tuples arriving at or before the bucket
// start (paper Section 3.2.1, LD variant). Rows come out in ascending
// (arrhour, hub) order.
func (s *Store) condensedLDRows(hubs []timetable.StopID, byHub map[timetable.StopID][]targetTuple, k int) []sqltypes.Row {
	var rows []sqltypes.Row
	hmax := s.hour(s.vm().MaxTime)
	for _, h := range hubs {
		all := byHub[h]
		// Order by arrival for bucket grouping; exp columns stay ordered by
		// td within each bucket per the paper.
		byArr := append([]targetTuple(nil), all...)
		sort.Slice(byArr, func(i, j int) bool {
			if byArr[i].ta != byArr[j].ta {
				return byArr[i].ta < byArr[j].ta
			}
			if byArr[i].td != byArr[j].td {
				return byArr[i].td < byArr[j].td
			}
			return byArr[i].v < byArr[j].v
		})
		hmin := s.hour(byArr[0].ta)
		past := map[timetable.StopID]timetable.Time{} // target -> latest td with ta <= bucket start
		idx := 0
		for bucket := hmin; bucket <= hmax; bucket++ {
			// Fold tuples arriving strictly before (or exactly at) the
			// bucket start into the past set: ta <= bucket*width.
			bound := timetable.Time(bucket * int64(s.meta.BucketSeconds))
			for idx < len(byArr) && byArr[idx].ta <= bound {
				t := byArr[idx]
				if b, ok := past[t.v]; !ok || t.td > b {
					past[t.v] = t.td
				}
				idx++
			}
			// Tuples arriving within this bucket: (bound, bound+width) plus
			// the boundary tuple already folded — the paper includes the
			// whole [bound, next) range in exp; overlap with the top-k set
			// at exactly the boundary is harmless (both are valid
			// candidates).
			lo := idx
			for lo > 0 && byArr[lo-1].ta >= bound {
				lo--
			}
			hi := idx
			for hi < len(byArr) && s.hour(byArr[hi].ta) == bucket {
				hi++
			}
			bucketTuples := append([]targetTuple(nil), byArr[lo:hi]...)
			sort.Slice(bucketTuples, func(i, j int) bool {
				if bucketTuples[i].td != bucketTuples[j].td {
					return bucketTuples[i].td < bucketTuples[j].td
				}
				return bucketTuples[i].v < bucketTuples[j].v
			})
			top := topKLD(past, k)
			rows = append(rows, sqltypes.Row{
				sqltypes.NewInt(int64(h)),
				sqltypes.NewInt(bucket),
				targetIDs(top),
				arrivalTimes(top), // departure times for the LD layout
				expColumn(bucketTuples, func(t targetTuple) timetable.Time { return t.td }),
				expColumn(bucketTuples, func(t targetTuple) timetable.Time { return timetable.Time(t.v) }),
				expColumn(bucketTuples, func(t targetTuple) timetable.Time { return t.ta }),
			})
		}
	}
	return bucketMajor(rows)
}

func topKEA(best map[timetable.StopID]timetable.Time, k int) []Result {
	out := make([]Result, 0, len(best))
	for v, ta := range best {
		out = append(out, Result{Stop: v, When: ta})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].When != out[j].When {
			return out[i].When < out[j].When
		}
		return out[i].Stop < out[j].Stop
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func topKLD(best map[timetable.StopID]timetable.Time, k int) []Result {
	out := make([]Result, 0, len(best))
	for v, td := range best {
		out = append(out, Result{Stop: v, When: td})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].When != out[j].When {
			return out[i].When > out[j].When
		}
		return out[i].Stop < out[j].Stop
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func expColumn(ts []targetTuple, get func(targetTuple) timetable.Time) sqltypes.Value {
	a := make([]int64, len(ts))
	for i, t := range ts {
		a[i] = int64(get(t))
	}
	return sqltypes.NewIntArray(a)
}
