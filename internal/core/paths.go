package core

import (
	"fmt"
	"sort"

	"ptldb/internal/csa"
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
// preprocessing: one earliest-arrival tree (csa.EarliestArrivalTree) per
// distinct (stop, departure) pair occurring in the labels. A tuple's journey
// boards at exactly its t_d, so the tree from (stop, t_d) reaches its hub at
// its t_a. The two tables are one Load, each expanded on the worker pool: a
// failed one leaves the database as it was, and a second call is refused.
func (w *Writer) BuildPathTables(tt *timetable.Timetable) error {
	s, err := w.view(w.version)
	if err != nil {
		return err
	}
	if _, ok := w.db.Table(s.pathsOutTable()); ok {
		return fmt.Errorf("core: the path tables of version %q already exist", s.version)
	}
	if tt.NumStops() != s.meta.Stops {
		return fmt.Errorf("core: timetable has %d stops, store has %d", tt.NumStops(), s.meta.Stops)
	}
	lout, ok := w.db.Table(s.loutTable())
	if !ok {
		return fmt.Errorf("core: %s table missing", s.loutTable())
	}
	lin, ok := w.db.Table(s.linTable())
	if !ok {
		return fmt.Errorf("core: %s table missing", s.linTable())
	}
	load := func(name string, rows func() ([]sqltypes.Row, error)) sqldb.TableLoad {
		return sqldb.TableLoad{
			Def: sqldb.TableDef{
				Name: name,
				PK:   []string{"vhub", "td"},
				Columns: []sqldb.ColumnDef{
					{Name: "vhub", Type: sqltypes.Int64},
					{Name: "td", Type: sqltypes.Int64},
					{Name: "stops", Type: sqltypes.IntArray},
					{Name: "trips", Type: sqltypes.IntArray},
				},
			},
			// The journeys come out in map iteration order.
			Rows: func() ([]sqltypes.Row, error) {
				rows, err := rows()
				sort.Slice(rows, func(a, b int) bool {
					if rows[a][0].I != rows[b][0].I {
						return rows[a][0].I < rows[b][0].I
					}
					return rows[a][1].I < rows[b][1].I
				})
				return rows, err
			},
		}
	}
	// paths_out: journeys v -> hub. All tuples of one lout row that share a
	// departure time are covered by a single scan from (v, td).
	pathsOut := func() (rows []sqltypes.Row, err error) {
		err = lout.Scan(func(row sqltypes.Row) error {
			v := timetable.StopID(row[0].I)
			hubs, tds, tas := row[1].A, row[2].A, row[3].A
			byDep := map[timetable.Time][]int{}
			for i := range hubs {
				if tds[i] == tas[i] { // dummy tuple
					continue
				}
				dep := timetable.Time(tds[i])
				byDep[dep] = append(byDep[dep], i)
			}
			for dep, idxs := range byDep {
				tree := csa.EarliestArrivalTree(tt, v, dep)
				for _, i := range idxs {
					hub := timetable.StopID(hubs[i])
					if tree.Arr[hub] != timetable.Time(tas[i]) {
						return fmt.Errorf("core: path expansion mismatch for %d->%d@%d: scan %v, label %d",
							v, hub, dep, tree.Arr[hub], tas[i])
					}
					stops, trips := pathColumns(v, tree.Journey(tt, hub))
					rows = append(rows, sqltypes.Row{
						sqltypes.NewInt(packVHub(v, hub)), sqltypes.NewInt(int64(dep)),
						sqltypes.NewIntArray(stops), sqltypes.NewIntArray(trips),
					})
				}
			}
			return nil
		})
		return rows, err
	}
	// paths_in: journeys hub -> v. Bucket all lin tuples by (hub, td) so one
	// scan from the hub covers every target stop sharing the departure.
	pathsIn := func() (rows []sqltypes.Row, err error) {
		type dest struct {
			v  timetable.StopID
			ta timetable.Time
		}
		byHubDep := map[[2]int32][]dest{}
		err = lin.Scan(func(row sqltypes.Row) error {
			v := timetable.StopID(row[0].I)
			hubs, tds, tas := row[1].A, row[2].A, row[3].A
			for i := range hubs {
				if tds[i] == tas[i] {
					continue
				}
				k := [2]int32{hubs[i], tds[i]}
				byHubDep[k] = append(byHubDep[k], dest{v: v, ta: timetable.Time(tas[i])})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for k, dests := range byHubDep {
			hub, dep := timetable.StopID(k[0]), timetable.Time(k[1])
			tree := csa.EarliestArrivalTree(tt, hub, dep)
			for _, d := range dests {
				if tree.Arr[d.v] != d.ta {
					return nil, fmt.Errorf("core: path expansion mismatch for %d->%d@%d: scan %v, label %d",
						hub, d.v, dep, tree.Arr[d.v], d.ta)
				}
				stops, trips := pathColumns(hub, tree.Journey(tt, d.v))
				rows = append(rows, sqltypes.Row{
					sqltypes.NewInt(packVHub(d.v, hub)), sqltypes.NewInt(int64(dep)),
					sqltypes.NewIntArray(stops), sqltypes.NewIntArray(trips),
				})
			}
		}
		return rows, nil
	}
	return w.db.Load(w.workers, load(s.pathsOutTable(), pathsOut), load(s.pathsInTable(), pathsIn))
}

func (v view) pathsOutTable() string { return "paths_out" + v.tableSuffix() }
func (v view) pathsInTable() string  { return "paths_in" + v.tableSuffix() }

// HasPathTables reports whether BuildPathTables ran for the bound version.
func (s *Store) HasPathTables() bool {
	_, ok := s.DB.Table(s.pathsOutTable())
	return ok
}

// pathColumns returns a journey's stop sequence (src first) and the trip of
// each leg, the stops and trips columns of its path row.
func pathColumns(src timetable.StopID, legs []timetable.Connection) (stops, trips []int32) {
	stops = append(make([]int32, 0, len(legs)+1), int32(src))
	trips = make([]int32, 0, len(legs))
	for _, c := range legs {
		stops = append(stops, int32(c.To))
		trips = append(trips, int32(c.Trip))
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
	rel, err := s.observe(&s.ver.stmts, obs.CodeV2VEAWitness,
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
