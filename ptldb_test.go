package ptldb

import (
	"testing"

	"ptldb/internal/gtfs"
)

func buildSmallCity(t *testing.T) (*Network, *DB) {
	t.Helper()
	tt, err := GenerateCity("Salt Lake City", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Create(t.TempDir(), tt, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return tt, db
}

func TestFacadeEndToEnd(t *testing.T) {
	tt, db := buildSmallCity(t)

	// A couple of point queries at the start of service.
	s, g := StopID(0), StopID(tt.NumStops()-1)
	arr, okEA, err := db.EarliestArrival(s, g, tt.MinTime())
	if err != nil {
		t.Fatal(err)
	}
	if okEA {
		dep, okLD, err := db.LatestDeparture(s, g, arr)
		if err != nil {
			t.Fatal(err)
		}
		if !okLD || dep < tt.MinTime() || dep > arr {
			t.Errorf("LD(%d,%d,%v) = %v, %v", s, g, arr, dep, okLD)
		}
		dur, okSD, err := db.ShortestDuration(s, g, tt.MinTime(), arr)
		if err != nil {
			t.Fatal(err)
		}
		if !okSD || dur <= 0 || dur > arr-tt.MinTime() {
			t.Errorf("SD = %v, %v", dur, okSD)
		}
		// The reconstructed journey realizes the EA timestamp.
		j, ok := EarliestArrivalJourney(tt, s, g, tt.MinTime())
		if !ok || j.Legs[len(j.Legs)-1].Arr != arr {
			t.Errorf("journey arrival %v, EA %v", j.Legs[len(j.Legs)-1].Arr, arr)
		}
		// ... and its mirror the LD timestamp.
		j, ok = LatestDepartureJourney(tt, s, g, arr)
		if !ok || j.Legs[0].Dep != dep || j.Legs[len(j.Legs)-1].Arr > arr {
			t.Errorf("LD journey %+v, LD %v by %v", j.Legs, dep, arr)
		}
	}

	// A stop outside the network is the caller's mistake, typed as one.
	if _, _, err := db.EarliestArrival(StopID(tt.NumStops()), g, tt.MinTime()); !IsInvalidArgument(err) {
		t.Errorf("EA from a stop past the last: err %v, want an invalid-argument error", err)
	}

	// Target sets and kNN.
	targets := []StopID{1, 3, 5, 7, 11, 13}
	if err := db.AddTargetSet("poi", targets, 4); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.TargetSets()["poi"]; !ok {
		t.Error("target set not listed")
	}
	res, err := db.EAKNN("poi", s, tt.MinTime(), 3)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := db.EAKNNNaive("poi", s, tt.MinTime(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(naive) {
		t.Errorf("optimized (%d results) and naive (%d) disagree", len(res), len(naive))
	}
	for i := range res {
		if res[i].When != naive[i].When {
			t.Errorf("position %d: optimized %v vs naive %v", i, res[i], naive[i])
		}
	}
	otm, err := db.EAOTM("poi", s, tt.MinTime())
	if err != nil {
		t.Fatal(err)
	}
	if len(otm) < len(res) {
		t.Errorf("OTM returned fewer targets (%d) than 3-NN (%d)", len(otm), len(res))
	}

	// The label reads above were served by the vector cache; the stops table
	// (it has text and float columns) is read through the buffer pool.
	for i := 0; i < 2; i++ {
		if stop, ok, err := db.Stop(g); err != nil || !ok || stop.ID != g {
			t.Fatalf("Stop(%d) = %+v, %v, %v", g, stop, ok, err)
		}
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SizeOnDisk <= 0 || st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFacadeReopenAcrossDevices(t *testing.T) {
	tt, err := GenerateCity("Austin", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := Create(dir, tt, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	arr1, ok1, err := db.EarliestArrival(0, 5, tt.MinTime())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// With the default vector cache Open decoded every label table, so a
	// query after DropCaches reads nothing; without one it reads its rows'
	// pages from the device.
	for _, cfg := range []Config{{Device: "hdd"}, {Device: "ssd"}, {Device: "hdd", VectorCacheBytes: -1}, {Device: "ssd", VectorCacheBytes: -1}} {
		db2, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		arr2, ok2, err := db2.EarliestArrival(0, 5, tt.MinTime())
		if err != nil {
			t.Fatal(err)
		}
		if ok1 != ok2 || arr1 != arr2 {
			t.Errorf("%+v: EA = %v,%v, want %v,%v", cfg, arr2, ok2, arr1, ok1)
		}
		if err := db2.DropCaches(); err != nil {
			t.Fatal(err)
		}
		db2.ResetIOClock()
		if _, _, err := db2.EarliestArrival(0, 5, tt.MinTime()); err != nil {
			t.Fatal(err)
		}
		st, err := db2.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if cached := cfg.VectorCacheBytes == 0; cached != (st.SimulatedIO == 0) {
			t.Errorf("%+v: %v of simulated I/O charged on a cold query; want none with the vector cache and some without", cfg, st.SimulatedIO)
		}
		db2.Close()
	}
}

func TestCreateWithStats(t *testing.T) {
	tt, err := GenerateCity("Denver", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, stats, err := CreateWithStats(t.TempDir(), tt, Config{Device: "ram"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if stats.LabelTuples <= 0 || stats.TuplesPerStop <= 0 || stats.DummyTuples <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.LabelTime <= 0 || stats.LoadTime <= 0 {
		t.Errorf("timings = %+v", stats)
	}
	// The label-build counters account for the labels they built.
	if ls := stats.Labels; ls.Searches != int64(2*tt.NumStops()) ||
		ls.TentativeTuples-ls.CrossPruned != int64(stats.LabelTuples) || ls.CoverChecks <= 0 {
		t.Errorf("label build counters %+v do not match %d stops, %d tuples", ls, tt.NumStops(), stats.LabelTuples)
	}
	// The paper reports dummies as a small fraction of all tuples.
	frac := float64(stats.DummyTuples) / float64(stats.LabelTuples+stats.DummyTuples)
	if frac > 0.35 {
		t.Errorf("dummy fraction %.2f unexpectedly high", frac)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := GenerateCity("Nowhere", 1, 1); err == nil {
		t.Error("unknown city accepted")
	}
	tt, _ := GenerateCity("Austin", 0.005, 1)
	if _, err := Create(t.TempDir(), tt, Config{Device: "floppy"}); err == nil {
		t.Error("unknown device accepted")
	}
	if _, err := Create(t.TempDir(), tt, Config{Ordering: "alphabetical"}); err == nil {
		t.Error("unknown ordering accepted")
	}
	if _, err := Open(t.TempDir(), Config{}); err == nil {
		t.Error("opening an empty directory succeeded")
	}
	if len(Profiles()) != 11 {
		t.Errorf("Profiles() returned %d entries", len(Profiles()))
	}
}

// TestLoadGTFS: a network written out as a GTFS feed loads back through the
// facade with the same stops and connections and nothing skipped, and a
// directory that holds no feed is an error.
func TestLoadGTFS(t *testing.T) {
	tt, err := GenerateCity("Austin", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := gtfs.FromTimetable(tt).Write(dir); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := LoadGTFS(dir)
	if err != nil || skipped != 0 {
		t.Fatalf("LoadGTFS: %d skipped, %v", skipped, err)
	}
	if got.NumStops() != tt.NumStops() || got.NumConnections() != tt.NumConnections() {
		t.Errorf("loaded %d stops / %d connections, wrote %d / %d",
			got.NumStops(), got.NumConnections(), tt.NumStops(), tt.NumConnections())
	}
	if _, _, err := LoadGTFS(t.TempDir()); err == nil {
		t.Error("LoadGTFS of an empty directory succeeded")
	}
}
