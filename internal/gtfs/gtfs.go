// Package gtfs reads and writes the subset of the General Transit Feed
// Specification needed to populate a timetable: stops.txt, routes.txt,
// trips.txt, stop_times.txt and (optionally) calendar.txt. The paper's
// evaluation datasets are one-weekday GTFS extracts of eleven city feeds;
// this package lets PTLDB ingest such feeds directly and lets the synthetic
// generator emit feeds in the same format.
package gtfs

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ptldb/internal/timetable"
)

// Feed is an in-memory GTFS subset.
type Feed struct {
	Stops       []Stop
	Routes      []Route
	Trips       []Trip
	StopTimes   []StopTime
	Frequencies []Frequency
}

// Frequency is one frequencies.txt record: the referenced trip's stop times
// act as a template repeated every Headway seconds from Start until End
// (exclusive), per the GTFS frequency-based-service model.
type Frequency struct {
	TripID  string
	Start   timetable.Time
	End     timetable.Time
	Headway timetable.Time
}

// Stop is one stops.txt record.
type Stop struct {
	ID   string
	Name string
	Lat  float64
	Lon  float64
}

// Route is one routes.txt record.
type Route struct {
	ID        string
	ShortName string
	Type      int
}

// Trip is one trips.txt record.
type Trip struct {
	RouteID   string
	ServiceID string
	ID        string
}

// StopTime is one stop_times.txt record. Times are seconds after midnight
// (GTFS allows hours >= 24 for after-midnight service).
type StopTime struct {
	TripID    string
	Arrival   timetable.Time
	Departure timetable.Time
	StopID    string
	Seq       int
}

// ParseTime parses a GTFS HH:MM:SS timestamp (hours may exceed 23). A time
// past timetable.Time's 32 bits is an error, never a wrapped value.
func ParseTime(s string) (timetable.Time, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) != 3 {
		return 0, fmt.Errorf("gtfs: bad time %q", s)
	}
	h, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	sec, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || h < 0 || m < 0 || m > 59 || sec < 0 || sec > 59 {
		return 0, fmt.Errorf("gtfs: bad time %q", s)
	}
	if h > (math.MaxInt32-m*60-sec)/3600 {
		return 0, fmt.Errorf("gtfs: time %q is past the 32-bit range", s)
	}
	return timetable.Time(h*3600 + m*60 + sec), nil
}

// FormatTime renders t as GTFS HH:MM:SS.
func FormatTime(t timetable.Time) string {
	v := int32(t)
	return fmt.Sprintf("%02d:%02d:%02d", v/3600, v/60%60, v%60)
}

// Load reads a GTFS directory.
func Load(dir string) (*Feed, error) {
	f := &Feed{}
	if err := readCSV(filepath.Join(dir, "stops.txt"), func(get func(string) string) error {
		lat, _ := strconv.ParseFloat(get("stop_lat"), 64)
		lon, _ := strconv.ParseFloat(get("stop_lon"), 64)
		id := get("stop_id")
		if id == "" {
			return fmt.Errorf("gtfs: stop with empty stop_id")
		}
		f.Stops = append(f.Stops, Stop{ID: id, Name: get("stop_name"), Lat: lat, Lon: lon})
		return nil
	}); err != nil {
		return nil, err
	}
	// routes.txt is optional for building a timetable.
	if _, err := os.Stat(filepath.Join(dir, "routes.txt")); err == nil {
		if err := readCSV(filepath.Join(dir, "routes.txt"), func(get func(string) string) error {
			typ, _ := strconv.Atoi(get("route_type"))
			f.Routes = append(f.Routes, Route{ID: get("route_id"), ShortName: get("route_short_name"), Type: typ})
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := readCSV(filepath.Join(dir, "trips.txt"), func(get func(string) string) error {
		id := get("trip_id")
		if id == "" {
			return fmt.Errorf("gtfs: trip with empty trip_id")
		}
		f.Trips = append(f.Trips, Trip{RouteID: get("route_id"), ServiceID: get("service_id"), ID: id})
		return nil
	}); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, "frequencies.txt")); err == nil {
		if err := readCSV(filepath.Join(dir, "frequencies.txt"), func(get func(string) string) error {
			start, err := ParseTime(get("start_time"))
			if err != nil {
				return err
			}
			end, err := ParseTime(get("end_time"))
			if err != nil {
				return err
			}
			hw, err := strconv.Atoi(get("headway_secs"))
			if err != nil || hw <= 0 {
				return fmt.Errorf("gtfs: bad headway_secs %q", get("headway_secs"))
			}
			f.Frequencies = append(f.Frequencies, Frequency{
				TripID: get("trip_id"), Start: start, End: end, Headway: timetable.Time(hw),
			})
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := readCSV(filepath.Join(dir, "stop_times.txt"), func(get func(string) string) error {
		arr, err := ParseTime(get("arrival_time"))
		if err != nil {
			return err
		}
		dep, err := ParseTime(get("departure_time"))
		if err != nil {
			return err
		}
		seq, err := strconv.Atoi(get("stop_sequence"))
		if err != nil {
			return fmt.Errorf("gtfs: bad stop_sequence %q", get("stop_sequence"))
		}
		f.StopTimes = append(f.StopTimes, StopTime{
			TripID: get("trip_id"), Arrival: arr, Departure: dep,
			StopID: get("stop_id"), Seq: seq,
		})
		return nil
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// readCSV parses one GTFS CSV file, calling row with a header-keyed getter.
func readCSV(path string, row func(get func(string) string) error) error {
	fh, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("gtfs: %w", err)
	}
	defer fh.Close()
	r := csv.NewReader(fh)
	r.FieldsPerRecord = -1
	header, err := r.Read()
	if err != nil {
		return fmt.Errorf("gtfs: %s: missing header: %w", path, err)
	}
	cols := map[string]int{}
	for i, h := range header {
		cols[strings.TrimSpace(strings.TrimPrefix(h, "\ufeff"))] = i
	}
	line := 1
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("gtfs: %s line %d: %w", path, line+1, err)
		}
		line++
		get := func(name string) string {
			i, ok := cols[name]
			if !ok || i >= len(rec) {
				return ""
			}
			return strings.TrimSpace(rec[i])
		}
		if err := row(get); err != nil {
			return fmt.Errorf("gtfs: %s line %d: %w", path, line, err)
		}
	}
}

// Timetable converts the feed into a timetable multigraph: consecutive stop
// times of each trip become elementary connections. Connections with
// non-positive duration (same-minute stops are common in real feeds) are
// skipped, matching TTL's positive-weight model; the count of skipped
// connections is returned.
func (f *Feed) Timetable() (*timetable.Timetable, int, error) {
	var b timetable.Builder
	stopIdx := make(map[string]timetable.StopID, len(f.Stops))
	for _, s := range f.Stops {
		if _, dup := stopIdx[s.ID]; dup {
			return nil, 0, fmt.Errorf("gtfs: duplicate stop_id %q", s.ID)
		}
		stopIdx[s.ID] = b.AddStop(s.Name, s.Lat, s.Lon)
	}
	tripIdx := make(map[string]timetable.TripID, len(f.Trips))
	for _, t := range f.Trips {
		if _, dup := tripIdx[t.ID]; dup {
			return nil, 0, fmt.Errorf("gtfs: duplicate trip_id %q", t.ID)
		}
		tripIdx[t.ID] = timetable.TripID(len(tripIdx))
	}

	byTrip := map[string][]StopTime{}
	for _, st := range f.StopTimes {
		if _, ok := tripIdx[st.TripID]; !ok {
			return nil, 0, fmt.Errorf("gtfs: stop_time references unknown trip %q", st.TripID)
		}
		if _, ok := stopIdx[st.StopID]; !ok {
			return nil, 0, fmt.Errorf("gtfs: stop_time references unknown stop %q", st.StopID)
		}
		byTrip[st.TripID] = append(byTrip[st.TripID], st)
	}
	freqByTrip := map[string][]Frequency{}
	for _, fr := range f.Frequencies {
		if _, ok := tripIdx[fr.TripID]; !ok {
			return nil, 0, fmt.Errorf("gtfs: frequency references unknown trip %q", fr.TripID)
		}
		freqByTrip[fr.TripID] = append(freqByTrip[fr.TripID], fr)
	}
	skipped := 0
	tripIDs := make([]string, 0, len(byTrip))
	for id := range byTrip {
		tripIDs = append(tripIDs, id)
	}
	sort.Strings(tripIDs) // deterministic construction
	nextTrip := timetable.TripID(len(tripIdx))
	for _, id := range tripIDs {
		sts := byTrip[id]
		sort.Slice(sts, func(i, j int) bool { return sts[i].Seq < sts[j].Seq })
		emit := func(shift timetable.Time, trip timetable.TripID) {
			for i := 0; i+1 < len(sts); i++ {
				from, to := stopIdx[sts[i].StopID], stopIdx[sts[i+1].StopID]
				dep, arr := sts[i].Departure+shift, sts[i+1].Arrival+shift
				if from == to || arr <= dep {
					skipped++
					continue
				}
				b.AddConnection(from, to, dep, arr, trip)
			}
		}
		freqs := freqByTrip[id]
		if len(freqs) == 0 {
			emit(0, tripIdx[id])
			continue
		}
		// Frequency-based service: the stop times are a template anchored at
		// the trip's first departure; one run starts at every headway step
		// in [Start, End).
		if len(sts) == 0 {
			continue
		}
		base := sts[0].Departure
		for _, fr := range freqs {
			for t0 := fr.Start; t0 < fr.End; t0 += fr.Headway {
				emit(t0-base, nextTrip)
				nextTrip++
			}
		}
	}
	tt, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	return tt, skipped, nil
}

// Write emits the feed as a GTFS directory (stops, routes, trips,
// stop_times and a single-service calendar).
func (f *Feed) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w := func(name string, header []string, rows [][]string) error {
		fh, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		cw := csv.NewWriter(fh)
		if err := cw.Write(header); err != nil {
			fh.Close()
			return err
		}
		if err := cw.WriteAll(rows); err != nil {
			fh.Close()
			return err
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			fh.Close()
			return err
		}
		return fh.Close()
	}

	stops := make([][]string, len(f.Stops))
	for i, s := range f.Stops {
		stops[i] = []string{s.ID, s.Name,
			strconv.FormatFloat(s.Lat, 'f', 6, 64), strconv.FormatFloat(s.Lon, 'f', 6, 64)}
	}
	if err := w("stops.txt", []string{"stop_id", "stop_name", "stop_lat", "stop_lon"}, stops); err != nil {
		return err
	}
	routes := make([][]string, len(f.Routes))
	for i, r := range f.Routes {
		routes[i] = []string{r.ID, r.ShortName, strconv.Itoa(r.Type)}
	}
	if err := w("routes.txt", []string{"route_id", "route_short_name", "route_type"}, routes); err != nil {
		return err
	}
	trips := make([][]string, len(f.Trips))
	for i, t := range f.Trips {
		trips[i] = []string{t.RouteID, t.ServiceID, t.ID}
	}
	if err := w("trips.txt", []string{"route_id", "service_id", "trip_id"}, trips); err != nil {
		return err
	}
	sts := make([][]string, len(f.StopTimes))
	for i, st := range f.StopTimes {
		sts[i] = []string{st.TripID, FormatTime(st.Arrival), FormatTime(st.Departure), st.StopID, strconv.Itoa(st.Seq)}
	}
	if err := w("stop_times.txt", []string{"trip_id", "arrival_time", "departure_time", "stop_id", "stop_sequence"}, sts); err != nil {
		return err
	}
	cal := [][]string{{"weekday", "1", "1", "1", "1", "1", "0", "0", "20260101", "20261231"}}
	return w("calendar.txt",
		[]string{"service_id", "monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday", "start_date", "end_date"}, cal)
}

// FromTimetable converts a timetable back into a feed (used by the synthetic
// generator CLI to emit loadable GTFS).
func FromTimetable(tt *timetable.Timetable) *Feed {
	f := &Feed{}
	for _, s := range tt.Stops() {
		f.Stops = append(f.Stops, Stop{
			ID: fmt.Sprintf("S%06d", s.ID), Name: s.Name, Lat: s.Lat, Lon: s.Lon,
		})
	}
	byTrip := map[timetable.TripID][]timetable.Connection{}
	for _, c := range tt.Connections() {
		byTrip[c.Trip] = append(byTrip[c.Trip], c)
	}
	trips := make([]timetable.TripID, 0, len(byTrip))
	for id := range byTrip {
		trips = append(trips, id)
	}
	sort.Slice(trips, func(i, j int) bool { return trips[i] < trips[j] })
	f.Routes = append(f.Routes, Route{ID: "R0", ShortName: "synthetic", Type: 3})
	for _, id := range trips {
		conns := byTrip[id]
		sort.Slice(conns, func(i, j int) bool { return conns[i].Dep < conns[j].Dep })
		// A trip must be a time-ordered chain; emit a sub-trip whenever the
		// chain breaks (defensive — synthetic trips are always chains).
		part := 0
		for i := 0; i < len(conns); {
			j := i
			for j+1 < len(conns) && conns[j].To == conns[j+1].From && conns[j+1].Dep >= conns[j].Arr {
				j++
			}
			tid := fmt.Sprintf("T%06d_%d", id, part)
			part++
			f.Trips = append(f.Trips, Trip{RouteID: "R0", ServiceID: "weekday", ID: tid})
			seq := 1
			for k := i; k <= j; k++ {
				c := conns[k]
				arrive := c.Dep // boarding stop: no earlier arrival known
				if k > i {
					arrive = conns[k-1].Arr
				}
				f.StopTimes = append(f.StopTimes, StopTime{
					TripID: tid, Arrival: arrive, Departure: c.Dep,
					StopID: fmt.Sprintf("S%06d", c.From), Seq: seq,
				})
				seq++
			}
			last := conns[j]
			f.StopTimes = append(f.StopTimes, StopTime{
				TripID: tid, Arrival: last.Arr, Departure: last.Arr,
				StopID: fmt.Sprintf("S%06d", last.To), Seq: seq,
			})
			i = j + 1
		}
	}
	return f
}
