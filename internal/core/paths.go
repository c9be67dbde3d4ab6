package core

import (
	"fmt"
	"sort"

	"ptldb/internal/obs"
	"ptldb/internal/sqldb"
	"ptldb/internal/sqldb/sqltypes"
	"ptldb/internal/timetable"
)

// The paper (Section 3.1) drops the TTL pivot/trip columns from the stored
// labels and remarks that a deployment wanting full itineraries "would make
// more sense to store on the database the expanded path for each tuple
// generated by the TTL preprocessing". BuildPathTables implements exactly
// that: two extra tables holding, for every non-dummy label tuple, the
// expanded stop and trip sequence of its journey, keyed so that one EA query
// plus two point lookups reconstruct a full door-to-door itinerary without
// touching the timetable.
//
//	paths_out(vhub, td) -> journey v -> hub departing td
//	paths_in (vhub, td) -> journey hub -> v departing td
//
// vhub packs (v << 32 | hub) because primary keys support two integer
// columns.

func packVHub(v, hub timetable.StopID) int64 {
	return int64(v)<<32 | int64(uint32(hub))
}

// BuildPathTables expands every label tuple of the bound version into the
// paths_out/paths_in tables. The original timetable must be supplied (label
// tables alone cannot name intermediate stops). This is offline
// preprocessing: one parent-tracking connection scan per distinct
// (stop, departure) pair occurring in the labels.
func (s *Store) BuildPathTables(tt *timetable.Timetable) error {
	if tt.NumStops() != s.meta.Stops {
		return fmt.Errorf("core: timetable has %d stops, store has %d", tt.NumStops(), s.meta.Stops)
	}
	def := func(name string) sqldb.TableDef {
		return sqldb.TableDef{
			Name: name,
			PK:   []string{"vhub", "td"},
			Columns: []sqldb.ColumnDef{
				{Name: "vhub", Type: sqltypes.Int64},
				{Name: "td", Type: sqltypes.Int64},
				{Name: "stops", Type: sqltypes.IntArray},
				{Name: "trips", Type: sqltypes.IntArray},
			},
		}
	}
	pout, err := s.DB.CreateTable(def(s.pathsOutTable()))
	if err != nil {
		return err
	}
	pin, err := s.DB.CreateTable(def(s.pathsInTable()))
	if err != nil {
		return err
	}

	// paths_out: journeys v -> hub. All tuples of one lout row that share a
	// departure time are covered by a single scan from (v, td).
	lout, ok := s.DB.Table(s.loutTable())
	if !ok {
		return fmt.Errorf("core: %s table missing", s.loutTable())
	}
	var outRows, inRows []sqltypes.Row
	err = lout.Scan(func(row sqltypes.Row) error {
		v := timetable.StopID(row[0].I)
		hubs, tds, tas := row[1].A, row[2].A, row[3].A
		byDep := map[int64][]int{}
		for i := range hubs {
			if tds[i] == tas[i] { // dummy tuple
				continue
			}
			byDep[tds[i]] = append(byDep[tds[i]], i)
		}
		for dep, idxs := range byDep {
			arr, parent := scanWithParents(tt, v, timetable.Time(dep))
			for _, i := range idxs {
				hub := timetable.StopID(hubs[i])
				if arr[hub] != timetable.Time(tas[i]) {
					return fmt.Errorf("core: path expansion mismatch for %d->%d@%d: scan %v, label %d",
						v, hub, dep, arr[hub], tas[i])
				}
				stops, trips := extractPath(tt, parent, v, hub)
				outRows = append(outRows, sqltypes.Row{
					sqltypes.NewInt(packVHub(v, hub)), sqltypes.NewInt(dep),
					sqltypes.NewIntArray(stops), sqltypes.NewIntArray(trips),
				})
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := loadPathRows(pout, outRows); err != nil {
		return err
	}

	// paths_in: journeys hub -> v. Bucket all lin tuples by (hub, td) so one
	// scan from the hub covers every target stop sharing the departure.
	lin, _ := s.DB.Table(s.linTable())
	type dest struct {
		v  timetable.StopID
		ta int64
	}
	byHubDep := map[[2]int64][]dest{}
	err = lin.Scan(func(row sqltypes.Row) error {
		v := timetable.StopID(row[0].I)
		hubs, tds, tas := row[1].A, row[2].A, row[3].A
		for i := range hubs {
			if tds[i] == tas[i] {
				continue
			}
			k := [2]int64{hubs[i], tds[i]}
			byHubDep[k] = append(byHubDep[k], dest{v: v, ta: tas[i]})
		}
		return nil
	})
	if err != nil {
		return err
	}
	for k, dests := range byHubDep {
		hub, dep := timetable.StopID(k[0]), k[1]
		arr, parent := scanWithParents(tt, hub, timetable.Time(dep))
		for _, d := range dests {
			if arr[d.v] != timetable.Time(d.ta) {
				return fmt.Errorf("core: path expansion mismatch for %d->%d@%d: scan %v, label %d",
					hub, d.v, dep, arr[d.v], d.ta)
			}
			stops, trips := extractPath(tt, parent, hub, d.v)
			inRows = append(inRows, sqltypes.Row{
				sqltypes.NewInt(packVHub(d.v, hub)), sqltypes.NewInt(dep),
				sqltypes.NewIntArray(stops), sqltypes.NewIntArray(trips),
			})
		}
	}
	return loadPathRows(pin, inRows)
}

// loadPathRows sorts expanded journeys by their (vhub, td) key — they were
// produced in map iteration order — and bulk-loads them.
func loadPathRows(tbl *sqldb.Table, rows []sqltypes.Row) error {
	sort.Slice(rows, func(a, b int) bool {
		if rows[a][0].I != rows[b][0].I {
			return rows[a][0].I < rows[b][0].I
		}
		return rows[a][1].I < rows[b][1].I
	})
	return tbl.BulkLoad(rows)
}

func (s *Store) pathsOutTable() string { return "paths_out" + s.tableSuffix() }
func (s *Store) pathsInTable() string  { return "paths_in" + s.tableSuffix() }

// HasPathTables reports whether BuildPathTables ran for the bound version.
func (s *Store) HasPathTables() bool {
	_, ok := s.DB.Table(s.pathsOutTable())
	return ok
}

// scanWithParents is the parent-tracking earliest-arrival scan, with the
// subtlety that label journeys board at exactly the given departure: the
// source's availability starts at dep.
func scanWithParents(tt *timetable.Timetable, src timetable.StopID, dep timetable.Time) ([]timetable.Time, []int32) {
	n := tt.NumStops()
	arr := make([]timetable.Time, n)
	parent := make([]int32, n)
	for i := range arr {
		arr[i] = timetable.Infinity
		parent[i] = -1
	}
	arr[src] = dep
	conns := tt.Connections()
	i := sort.Search(len(conns), func(i int) bool { return conns[i].Dep >= dep })
	for ; i < len(conns); i++ {
		c := conns[i]
		if c.Dep >= arr[c.From] && c.Arr < arr[c.To] {
			arr[c.To] = c.Arr
			parent[c.To] = int32(i)
		}
	}
	return arr, parent
}

// extractPath walks parent pointers from dst back to src, returning the stop
// sequence (src first) and the trip of each leg.
func extractPath(tt *timetable.Timetable, parent []int32, src, dst timetable.StopID) (stops, trips []int64) {
	var revStops, revTrips []int64
	at := dst
	for at != src {
		c := tt.Connection(parent[at])
		revStops = append(revStops, int64(at))
		revTrips = append(revTrips, int64(c.Trip))
		at = c.From
	}
	stops = make([]int64, 0, len(revStops)+1)
	stops = append(stops, int64(src))
	for i := len(revStops) - 1; i >= 0; i-- {
		stops = append(stops, revStops[i])
	}
	trips = make([]int64, len(revTrips))
	for i := range revTrips {
		trips[i] = revTrips[len(revTrips)-1-i]
	}
	return stops, trips
}

// DBJourney is an itinerary reconstructed purely from database tables.
type DBJourney struct {
	Stops []timetable.StopID
	Trips []timetable.TripID
	// Dep and Arr are the journey's departure and arrival timestamps.
	Dep, Arr timetable.Time
}

// EarliestArrivalJourneyDB answers EA(s, g, t) and reconstructs the full
// itinerary using only SQL over the label and path tables (BuildPathTables
// must have run). ok is false when no journey exists.
func (s *Store) EarliestArrivalJourneyDB(src, dst timetable.StopID, t timetable.Time) (DBJourney, bool, error) {
	if !s.HasPathTables() {
		return DBJourney{}, false, fmt.Errorf("core: path tables not built (run BuildPathTables)")
	}
	if err := s.checkStops(src, dst); err != nil {
		return DBJourney{}, false, err
	}
	rel, err := s.observe(obs.CodeV2VEAWitness, s.ver.v2v[v2vWitness],
		sqltypes.NewInt(int64(src)), sqltypes.NewInt(int64(dst)), sqltypes.NewInt(int64(t)))
	if err != nil {
		return DBJourney{}, false, err
	}
	if len(rel.Rows) == 0 {
		return DBJourney{}, false, nil
	}
	row := rel.Rows[0]
	hub := timetable.StopID(row[0].I)
	outTD, outTA := row[1].I, row[2].I
	inTD, inTA := row[3].I, row[4].I

	j := DBJourney{Dep: timetable.Time(outTD), Arr: timetable.Time(inTA)}
	outDummy := outTD == outTA // dummies have zero duration; real tuples never do
	inDummy := inTD == inTA

	appendLeg := func(table string, v, h timetable.StopID, td int64) error {
		tbl, ok := s.DB.Table(table)
		if !ok {
			return fmt.Errorf("core: %s table missing", table)
		}
		prow, found, err := tbl.LookupPK([]int64{packVHub(v, h), td})
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("core: no expanded path for (%d, %d) @ %d in %s", v, h, td, table)
		}
		stops, trips := prow[2].A, prow[3].A
		start := 0
		if len(j.Stops) > 0 {
			start = 1 // splice at the shared hub stop
		}
		for _, x := range stops[start:] {
			j.Stops = append(j.Stops, timetable.StopID(x))
		}
		for _, x := range trips {
			j.Trips = append(j.Trips, timetable.TripID(x))
		}
		return nil
	}

	switch {
	case outDummy && inDummy:
		// src == dst (or a pure waiting "journey"): nothing to ride.
		j.Stops = []timetable.StopID{src}
	case inDummy:
		// Direct journey src -> dst recorded in lout with hub = dst.
		if err := appendLeg(s.pathsOutTable(), src, hub, outTD); err != nil {
			return DBJourney{}, false, err
		}
	case outDummy:
		// Direct journey recorded in lin with hub = src.
		if err := appendLeg(s.pathsInTable(), dst, hub, inTD); err != nil {
			return DBJourney{}, false, err
		}
	default:
		if err := appendLeg(s.pathsOutTable(), src, hub, outTD); err != nil {
			return DBJourney{}, false, err
		}
		if err := appendLeg(s.pathsInTable(), dst, hub, inTD); err != nil {
			return DBJourney{}, false, err
		}
	}
	return j, true, nil
}
