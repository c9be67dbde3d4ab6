package gtfs

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ptldb/internal/synth"
	"ptldb/internal/timetable"
)

func TestParseTime(t *testing.T) {
	cases := []struct {
		in   string
		want timetable.Time
		ok   bool
	}{
		{"00:00:00", 0, true},
		{"10:00:00", 36000, true},
		{"25:30:05", 25*3600 + 30*60 + 5, true}, // after-midnight service
		{" 08:05:09 ", 8*3600 + 5*60 + 9, true},
		{"8:5:9", 8*3600 + 5*60 + 9, true},
		{"10:60:00", 0, false},
		{"10:00", 0, false},
		{"abc", 0, false},
		{"-1:00:00", 0, false},
		// timetable.Time is 32 bits: the last second it holds parses, the next
		// one and any later hour do not.
		{"596523:14:07", 2147483647, true},
		{"596523:14:08", 0, false},
		{"600000:00:00", 0, false},
		{"9223372036854775807:00:00", 0, false},
	}
	for _, c := range cases {
		got, err := ParseTime(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseTime(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseTime(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFormatTimeRoundTrip(t *testing.T) {
	for _, v := range []timetable.Time{0, 1, 3599, 36000, 86399, 90000} {
		got, err := ParseTime(FormatTime(v))
		if err != nil || got != v {
			t.Errorf("round trip %d -> %q -> %d (%v)", v, FormatTime(v), got, err)
		}
	}
}

// sprintfTime is the rendering FormatTime had before AppendTime: the reference
// AppendTime must reproduce byte for byte, negative and > 99 h times included.
func sprintfTime(t timetable.Time) string {
	v := int32(t)
	return fmt.Sprintf("%02d:%02d:%02d", v/3600, v/60%60, v%60)
}

func TestAppendTimeMatchesSprintf(t *testing.T) {
	check := func(v timetable.Time) {
		t.Helper()
		want := sprintfTime(v)
		if got := string(AppendTime([]byte("x"), v)); got != "x"+want {
			t.Fatalf("AppendTime(%d) = %q, want %q", v, got[1:], want)
		}
		if got := FormatTime(v); got != want {
			t.Fatalf("FormatTime(%d) = %q, want %q", v, got, want)
		}
	}
	for _, v := range []timetable.Time{0, 1, 9, 10, 59, 60, 599, 3599, 3600, 35999, 36000, 86399,
		99*3600 + 3599, 100 * 3600, 360000, -1, -9, -10, -59, -60, -100, -3599, -3600, -3661, -36000,
		math.MaxInt32, math.MinInt32, math.MinInt32 + 1} {
		check(v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		check(timetable.Time(rng.Uint32()))
		check(timetable.Time(rng.Int31n(2*400*3600) - 400*3600))
	}
}

// writeMiniFeed writes a two-trip feed by hand.
func writeMiniFeed(t *testing.T, dir string) {
	t.Helper()
	files := map[string]string{
		"stops.txt": `stop_id,stop_name,stop_lat,stop_lon
A,Alpha,37.1,23.1
B,Beta,37.2,23.2
C,Gamma,37.3,23.3
`,
		"routes.txt": `route_id,route_short_name,route_type
R1,10,3
`,
		"trips.txt": `route_id,service_id,trip_id
R1,wk,T1
R1,wk,T2
`,
		"stop_times.txt": `trip_id,arrival_time,departure_time,stop_id,stop_sequence
T1,08:00:00,08:00:00,A,1
T1,08:10:00,08:12:00,B,2
T1,08:20:00,08:20:00,C,3
T2,09:00:00,09:00:00,C,1
T2,09:15:00,09:15:00,A,2
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadAndConvert(t *testing.T) {
	dir := t.TempDir()
	writeMiniFeed(t, dir)
	feed, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(feed.Stops) != 3 || len(feed.Trips) != 2 || len(feed.StopTimes) != 5 || len(feed.Routes) != 1 {
		t.Fatalf("feed sizes: %d stops %d trips %d stop_times %d routes",
			len(feed.Stops), len(feed.Trips), len(feed.StopTimes), len(feed.Routes))
	}
	tt, skipped, err := feed.Timetable()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d", skipped)
	}
	if tt.NumStops() != 3 || tt.NumConnections() != 3 || tt.NumTrips() != 2 {
		t.Fatalf("timetable: %+v", tt.Stats())
	}
	// T1's second leg departs B at 08:12 (departure, not arrival).
	var found bool
	for _, c := range tt.Connections() {
		if c.Dep == 8*3600+12*60 && c.Arr == 8*3600+20*60 {
			found = true
		}
	}
	if !found {
		t.Error("dwell time not honoured: B->C leg missing 08:12 departure")
	}
}

func TestTimetableSkipsDegenerateConnections(t *testing.T) {
	dir := t.TempDir()
	writeMiniFeed(t, dir)
	// Append a trip with a zero-duration hop and a same-stop hop.
	f, err := os.OpenFile(filepath.Join(dir, "stop_times.txt"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("T2,09:15:00,09:15:00,B,3\nT2,09:15:00,09:15:00,B,4\n")
	f.Close()
	feed, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, skipped, err := feed.Timetable()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2", skipped)
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(dir); err == nil {
		t.Error("Load of empty dir succeeded")
	}
	writeMiniFeed(t, dir)
	// Unknown stop reference.
	f, _ := os.OpenFile(filepath.Join(dir, "stop_times.txt"), os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("T2,10:00:00,10:00:00,ZZZ,5\n")
	f.Close()
	feed, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := feed.Timetable(); err == nil {
		t.Error("unknown stop reference accepted")
	}
}

func TestBadTimeRejected(t *testing.T) {
	dir := t.TempDir()
	writeMiniFeed(t, dir)
	f, _ := os.OpenFile(filepath.Join(dir, "stop_times.txt"), os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("T2,banana,10:00:00,A,5\n")
	f.Close()
	if _, err := Load(dir); err == nil {
		t.Error("bad time accepted")
	}
}

// TestWriteLoadRoundTrip checks that a synthetic timetable written as GTFS
// and loaded back yields the identical connection multiset.
func TestWriteLoadRoundTrip(t *testing.T) {
	p, _ := synth.ProfileByName("Austin")
	tt := synth.Generate(p, synth.Options{Scale: 0.01, Seed: 5})
	feed := FromTimetable(tt)
	dir := t.TempDir()
	if err := feed.Write(dir); err != nil {
		t.Fatal(err)
	}
	feed2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	tt2, skipped, err := feed2.Timetable()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d", skipped)
	}
	if tt2.NumStops() != tt.NumStops() {
		t.Fatalf("stops: %d vs %d", tt2.NumStops(), tt.NumStops())
	}
	if tt2.NumConnections() != tt.NumConnections() {
		t.Fatalf("connections: %d vs %d", tt2.NumConnections(), tt.NumConnections())
	}
	// Connections are sorted identically in both (same Builder ordering), so
	// compare element-wise ignoring trip ids (renumbered on write).
	for i := range tt.Connections() {
		a, b := tt.Connection(int32(i)), tt2.Connection(int32(i))
		if a.From != b.From || a.To != b.To || a.Dep != b.Dep || a.Arr != b.Arr {
			t.Fatalf("connection %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestFrequencies checks frequency-based service expansion: the trip's stop
// times act as a template repeated every headway within [start, end).
func TestFrequencies(t *testing.T) {
	dir := t.TempDir()
	writeMiniFeed(t, dir)
	// T1 (08:00 A -> 08:10/08:12 B -> 08:20 C) becomes a template running
	// every 30 min from 09:00 to 10:00 (exclusive): runs at 09:00 and 09:30.
	if err := os.WriteFile(filepath.Join(dir, "frequencies.txt"), []byte(
		"trip_id,start_time,end_time,headway_secs\nT1,09:00:00,10:00:00,1800\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	feed, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(feed.Frequencies) != 1 {
		t.Fatalf("frequencies = %d", len(feed.Frequencies))
	}
	tt, skipped, err := feed.Timetable()
	if err != nil || skipped != 0 {
		t.Fatal(skipped, err)
	}
	// T2 contributes 1 connection; T1's template contributes 2 connections
	// per run x 2 runs = 4. The original T1 itself is replaced by the runs.
	if tt.NumConnections() != 5 {
		t.Fatalf("connections = %d, want 5", tt.NumConnections())
	}
	// First run: A departs 09:00, B->C leg departs 09:12 (dwell preserved).
	var found9, found912 bool
	for _, c := range tt.Connections() {
		if c.Dep == 9*3600 {
			found9 = true
		}
		if c.Dep == 9*3600+12*60 && c.Arr == 9*3600+20*60 {
			found912 = true
		}
	}
	if !found9 || !found912 {
		t.Errorf("template shift wrong: dep9=%v dep912=%v", found9, found912)
	}
	// Each run is a distinct trip (no accidental vehicle sharing).
	if tt.NumTrips() != 3 { // T2 + two T1 runs
		t.Errorf("trips = %d, want 3", tt.NumTrips())
	}
}

func TestFrequenciesErrors(t *testing.T) {
	dir := t.TempDir()
	writeMiniFeed(t, dir)
	os.WriteFile(filepath.Join(dir, "frequencies.txt"), []byte(
		"trip_id,start_time,end_time,headway_secs\nZZZ,09:00:00,10:00:00,600\n"), 0o644)
	feed, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := feed.Timetable(); err == nil {
		t.Error("frequency with unknown trip accepted")
	}
	os.WriteFile(filepath.Join(dir, "frequencies.txt"), []byte(
		"trip_id,start_time,end_time,headway_secs\nT1,09:00:00,10:00:00,0\n"), 0o644)
	if _, err := Load(dir); err == nil {
		t.Error("zero headway accepted")
	}
}
